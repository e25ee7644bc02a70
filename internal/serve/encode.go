// encode.go: the /v1/query response path.
//
// EncodeResult and encoding/json are the specification of the response
// bytes: QueryResponse marshaled with a two-space indent and one trailing
// newline, as writeJSON writes every other route. renderQuery writes
// those bytes straight into the request's scratch, with no reflection and
// no second pass: each synopsis appends its binary encoding to a reused
// buffer and is base64-encoded from there into the response, strings are
// escaped as encoding/json escapes them (HTML-safe, its default), and the
// indentation is written along with the values instead of by json.Indent
// over a compact copy. TestQueryResponseMatchesEncodingJSON and
// FuzzQueryResponse hold the two byte-identical.
package serve

import (
	"encoding/base64"
	"strconv"
	"unicode/utf8"

	"repro/internal/store"
)

// renderQuery renders the response body for res into the scratch's
// response buffer. The bytes are valid until the scratch is released.
func (sc *scratch) renderQuery(res store.QueryResult, cached bool) ([]byte, error) {
	b := append(sc.out[:0], "{\n  \"answers\": ["...)
	answers := res.Answers()
	for i, a := range answers {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = sc.appendAnswer(append(b, "\n    {"...), a); err != nil {
			return nil, err
		}
		b = append(b, "\n    }"...)
	}
	if len(answers) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "],\n  \"cached\": "...)
	b = strconv.AppendBool(b, cached)
	sc.out = append(b, "\n}\n"...)
	return sc.out, nil
}

// appendAnswer appends the fields of one WireAnswer object, in
// declaration order and under the same omitempty rules.
func (sc *scratch) appendAnswer(b []byte, a store.Answer) ([]byte, error) {
	raw, err := synopsisBytes(sc.syn[:0], a)
	sc.syn = raw
	if err != nil {
		return nil, err
	}
	const field = "\n      \""
	b = appendString(append(b, field+`metric": `...), a.Metric)
	if a.Key != "" {
		b = appendString(append(b, ","+field+`key": `...), a.Key)
	}
	if a.Aggregate {
		b = append(b, ","+field+`aggregate": true`...)
	}
	b = appendString(append(b, ","+field+`family": `...), a.Family().String())
	b = strconv.AppendUint(append(b, ","+field+`items": `...), a.Items(), 10)
	b = append(base64.StdEncoding.AppendEncode(append(b, ","+field+`synopsis": "`...), raw), '"')
	switch a.Family() {
	case store.FamilyDistinct:
		if d := a.Distinct(); d != 0 {
			b = strconv.AppendUint(append(b, ","+field+`distinct": `...), d, 10)
		}
	case store.FamilyTopK:
		if top := a.TopK(viewTopK); len(top) > 0 {
			b = append(b, ","+field+`top": [`...)
			for i, c := range top {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendString(append(b, "\n        {\n          \"item\": "...), c.Item)
				b = strconv.AppendUint(append(b, ",\n          \"count\": "...), c.Count, 10)
				b = append(b, "\n        }"...)
			}
			b = append(b, "\n      ]"...)
		}
	case store.FamilyQuantile:
		var qs [len(wirePhis)]uint64
		a.QuantilesInto(wirePhis[:], qs[:])
		b = append(b, ","+field+`quantiles": {`...)
		for i, q := range qs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(append(append(b, "\n        \""...), wirePhiNames[i]...), "\": "...)
			b = strconv.AppendUint(b, q, 10)
		}
		b = append(b, "\n      }"...)
	}
	return b, nil
}

// hexDigits spells the \u00XX escapes.
const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string literal, escaped as
// encoding/json escapes it with HTML escaping on: '"' and '\\' by a
// backslash, \b \f \n \r \t by name, every other control character and
// '<', '>' and '&' as \u00XX, U+2028 and U+2029 as \u2028 and \u2029,
// and each invalid UTF-8 byte replaced by \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
