// observe.go: the /v1/observe decode path and the per-request scratch
// every POST route borrows.
//
// encoding/json is the specification of the wire grammar. The scanner
// here recognises the one shape real writers send — the bytes
// json.Marshal(ObserveRequest) produces, whitespace tolerated — and
// decodes it in place: no reflection, no intermediate []WireObservation,
// no garbage. On anything else (an escape, a non-canonical number, a key
// that is not exactly a field name, a null, trailing bytes) it declines,
// and the same bytes go through encoding/json, so status codes and
// error bodies are encoding/json's. The rule that keeps the two paths
// one behaviour: the scanner accepts a body only when it yields exactly
// the batch encoding/json would (FuzzObserveDecode is the oracle).
//
// Ownership. The body buffer and the batch slice belong to the scratch
// and are reused by the next request, so nothing below the edge may
// keep the slice (the Backend.ObserveBatch contract) and no decoded
// string may alias the buffer: every string is a Go string of its own,
// taken from the scratch's intern table, which backends are free to
// retain (store entries, mqlog record keys, Space-Saving counters do).
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"repro/internal/store"
)

// What one idle scratch may keep between requests. Constants, not
// knobs: together they bound a scratch at 64 KiB of body + 40 KiB of
// batch + ≤ 48 KiB of interned strings + 2 × 64 KiB of query response
// and synopsis bytes, under 320 KiB, and a request that needs more (an
// 8 MiB body, a 100 000-observation batch, a response with a dozen
// Count-Min answers) gets it for its own lifetime only. At most
// maxIdleScratch of them wait between requests, under 2.5 MiB.
const (
	maxIdleScratch = 8
	maxPooledBody  = 64 << 10 // body, response and synopsis buffer capacity kept, bytes
	maxPooledBatch = 512      // batch capacity kept, observations
	internSets     = 512      // intern table sets of two (a power of two)
	maxInternLen   = 32       // longer strings are allocated per use
)

// scratch is what a request borrows from Server.scratch: the buffer its
// body is read into; for /v1/observe, the batch it is decoded into and
// the intern table its strings come from; for /v1/query, the buffers its
// response and each answer's synopsis bytes are rendered into
// (encode.go).
type scratch struct {
	body   bytes.Buffer
	batch  []store.Observation
	intern internTable
	out    []byte
	syn    []byte
}

func newScratch() *scratch {
	return &scratch{intern: internTable{seed: maphash.MakeSeed()}}
}

// release returns sc to the free list, first dropping whatever outgrew the
// retention bounds above.
func (s *Server) release(sc *scratch) {
	if sc.body.Cap() > maxPooledBody {
		sc.body = bytes.Buffer{}
	}
	if cap(sc.batch) > maxPooledBatch {
		sc.batch = nil
	}
	if cap(sc.out) > maxPooledBody {
		sc.out = nil
	}
	if cap(sc.syn) > maxPooledBody {
		sc.syn = nil
	}
	s.scratch.Put(sc)
}

// readBody reads the request body into the scratch's buffer under
// maxBodyBytes. On failure it returns the status to answer: 413 for a
// body over the cap, 400 for anything else. The returned bytes are
// valid until the scratch is released.
func (sc *scratch) readBody(w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	sc.body.Reset()
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		// Room for the whole body plus the spare ReadFrom wants before
		// its last, empty read: a reused buffer never grows.
		sc.body.Grow(int(n) + bytes.MinRead)
	}
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge, err
		}
		return nil, http.StatusBadRequest, err
	}
	return sc.body.Bytes(), http.StatusOK, nil
}

// decodeJSON decodes body, which must hold exactly one JSON value, into
// v with encoding/json. Decoder.Decode stops after the value; bytes
// other than whitespace behind it are an error here, on every route.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("serve: invalid character %q after the JSON value", rest[0])
	}
	return nil
}

// decodeBody reads the request's JSON body into the scratch and decodes
// it into v; on failure it returns the status to answer.
func (sc *scratch) decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	body, code, err := sc.readBody(w, r)
	if err != nil {
		return code, err
	}
	if err := decodeJSON(body, v); err != nil {
		return http.StatusBadRequest, err
	}
	return http.StatusOK, nil
}

// decodeObserve decodes an /v1/observe body into the scratch's batch:
// by the scanner when it recognises the body, by encoding/json
// otherwise. The batch is valid until the scratch is released.
func (sc *scratch) decodeObserve(body []byte) ([]store.Observation, error) {
	if batch, ok := sc.scanObserve(body); ok {
		return batch, nil
	}
	var req ObserveRequest
	if err := decodeJSON(body, &req); err != nil {
		return nil, err
	}
	batch := sc.batch[:0]
	for _, wo := range req.Observations {
		batch = append(batch, store.Observation{
			Metric: wo.Metric, Key: wo.Key, Item: wo.Item, Value: wo.Value, Time: wo.Time,
		})
	}
	sc.batch = batch
	return batch, nil
}

// renderAck renders the success body for n accepted observations — the
// bytes writeJSON(ObserveResponse{Accepted: n}) would write — into the
// body buffer, whose request bytes are spent once the batch is decoded
// (nothing decoded aliases them).
func (sc *scratch) renderAck(n int) []byte {
	sc.body.Reset()
	sc.body.WriteString("{\n  \"accepted\": ")
	sc.body.Write(strconv.AppendInt(sc.body.AvailableBuffer(), int64(n), 10))
	sc.body.WriteString("\n}\n")
	return sc.body.Bytes()
}

// internTable resolves the byte form of a metric, key or item to a Go
// string without allocating when the string was seen recently. It is a
// two-way set-associative cache: a string hashes to one set of two, the
// more recently used first, and a miss replaces the other. So its size
// is fixed, a string in steady use survives one-off neighbours (it takes
// two misses in its set between two of its uses to lose it), and a
// stream of never-repeating strings costs what it cost before — one
// allocation per string.
type internTable struct {
	seed maphash.Seed
	sets [internSets][2]string
}

func (t *internTable) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxInternLen {
		return string(b)
	}
	set := &t.sets[maphash.Bytes(t.seed, b)&(internSets-1)]
	switch string(b) { // neither the switch nor its cases allocate
	case set[0]:
	case set[1]:
		set[0], set[1] = set[1], set[0]
	default:
		set[0], set[1] = string(b), set[0]
	}
	return set[0]
}

// scanner walks one request body. Every method that can fail reports
// ok = false, which always means "decline", never "bad request".
type scanner struct {
	b []byte
	i int
}

func (s *scanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it is next.
func (s *scanner) eat(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string literal that needs no unquoting: no escape, no
// control character (a syntax error to encoding/json) and no invalid
// UTF-8 (which encoding/json replaces with U+FFFD).
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start, ascii := s.i, true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			raw := s.b[start:s.i]
			s.i++
			return raw, ascii || utf8.Valid(raw)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// uint consumes a canonical non-negative integer no larger than max: the
// only number form strconv.ParseInt/ParseUint — what encoding/json
// applies to an integer field — and the JSON grammar both accept
// without a sign. A fraction or exponent behind it fails the caller's
// next eat.
func (s *scanner) uint(max uint64) (uint64, bool) {
	s.skipSpace()
	start := s.i
	var v uint64
	for ; s.i < len(s.b); s.i++ {
		d := uint64(s.b[s.i] - '0')
		if d > 9 {
			break
		}
		if v > (max-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	if n := s.i - start; n == 0 || (n > 1 && s.b[start] == '0') {
		return 0, false
	}
	return v, true
}

// scanObserve decodes body into the scratch's batch if it is exactly
// {"observations":[{...},...]} with objects made of the five wire
// fields spelled as WireObservation tags them, plain strings and
// canonical non-negative integers. A repeated field keeps its last
// value and an absent one its zero, as in encoding/json.
func (sc *scratch) scanObserve(body []byte) ([]store.Observation, bool) {
	s := scanner{b: body}
	if !s.eat('{') {
		return nil, false
	}
	if name, ok := s.str(); !ok || string(name) != "observations" {
		return nil, false
	}
	if !s.eat(':') || !s.eat('[') {
		return nil, false
	}
	batch := sc.batch[:0]
	for more := !s.eat(']'); more; more = !s.eat(']') {
		if len(batch) > 0 && !s.eat(',') {
			return nil, false
		}
		var o store.Observation
		if !s.eat('{') || !sc.scanFields(&s, &o) {
			return nil, false
		}
		batch = append(batch, o)
	}
	sc.batch = batch
	if !s.eat('}') {
		return nil, false
	}
	s.skipSpace()
	return batch, s.i == len(body)
}

// strField consumes a string value and resolves it through the intern
// table.
func (sc *scratch) strField(s *scanner) (string, bool) {
	raw, ok := s.str()
	return sc.intern.get(raw), ok
}

// scanFields consumes one observation's fields and its closing brace.
func (sc *scratch) scanFields(s *scanner, o *store.Observation) bool {
	if s.eat('}') {
		return true
	}
	for {
		name, ok := s.str()
		if !ok || !s.eat(':') {
			return false
		}
		switch string(name) {
		case "metric":
			o.Metric, ok = sc.strField(s)
		case "key":
			o.Key, ok = sc.strField(s)
		case "item":
			o.Item, ok = sc.strField(s)
		case "value":
			o.Value, ok = s.uint(math.MaxUint64)
		case "time":
			var t uint64
			t, ok = s.uint(math.MaxInt64)
			o.Time = int64(t)
		default:
			return false
		}
		if !ok {
			return false
		}
		if !s.eat(',') {
			return s.eat('}')
		}
	}
}
