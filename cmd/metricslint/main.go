// Command metricslint scrapes a Prometheus text-exposition payload (from
// a URL, a file, or stdin) and lints it: every line must be valid
// exposition syntax, every metric family must carry HELP and TYPE
// comments, and every family name must match the repo's telemetry
// convention ^analytics_[a-z_]+$ (histogram _bucket/_sum/_count series
// are attributed to their family). A histogram series' le must rise
// strictly to a last +Inf, its cumulative counts never fall, and its
// _count equal the +Inf bucket. CI runs it against a live demo's
// -metrics endpoint, so -retries polls until the server is up.
//
// It also lints the tracing surface: -traceurl (or -tracefile) reads a
// /debug/traces payload and validates it against the Chrome trace-event
// schema the repo emits — a top-level traceEvents array of complete
// ("X"-phase) events with microsecond timestamps, pid/tid lanes and
// string-valued args, with no unknown fields. Both lints can run in one
// invocation.
//
// Usage:
//
//	go run ./cmd/metricslint -url http://localhost:9090/metrics [-retries 30]
//	go run ./cmd/metricslint -file scrape.txt [-require store,mqlog]
//	go run ./cmd/metricslint -traceurl http://localhost:9090/debug/traces [-min-events 1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

var namePat = regexp.MustCompile(`^analytics_[a-z_]+$`)

func main() {
	url := flag.String("url", "", "scrape this URL")
	file := flag.String("file", "", "read this file instead of scraping (\"-\" for stdin)")
	retries := flag.Int("retries", 30, "URL fetch attempts, one second apart (a demo may still be starting)")
	minSamples := flag.Int("min-samples", 1, "fail unless the payload has at least this many samples")
	require := flag.String("require", "", "comma-separated layer names; fail unless analytics_<layer>_ metrics are present for each")
	traceURL := flag.String("traceurl", "", "also lint a /debug/traces payload scraped from this URL")
	traceFile := flag.String("tracefile", "", "also lint this /debug/traces payload file (\"-\" for stdin)")
	minEvents := flag.Int("min-events", 0, "fail unless the trace payload has at least this many events")
	flag.Parse()

	if *traceURL != "" || *traceFile != "" {
		payload, err := fetch(*traceURL, *traceFile, *retries)
		if err != nil {
			fail("%v", err)
		}
		events, errs := tracelint(payload)
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "tracelint: %s\n", e)
		}
		if len(errs) > 0 {
			fail("%d trace-event schema errors", len(errs))
		}
		if events < *minEvents {
			fail("only %d trace events (< %d)", events, *minEvents)
		}
		fmt.Printf("tracelint: OK — %d events\n", events)
		if *url == "" && *file == "" {
			return
		}
	}

	payload, err := fetch(*url, *file, *retries)
	if err != nil {
		fail("%v", err)
	}
	families, samples, errs := lint(payload)
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "metricslint: %s\n", e)
	}
	if len(errs) > 0 {
		fail("%d lint errors in %d lines", len(errs), strings.Count(payload, "\n"))
	}
	if samples < *minSamples {
		fail("only %d samples (< %d)", samples, *minSamples)
	}
	if *require != "" {
		var missing []string
		for _, layer := range strings.Split(*require, ",") {
			layer = strings.TrimSpace(layer)
			prefix := "analytics_" + layer + "_"
			found := false
			for name := range families {
				if strings.HasPrefix(name, prefix) {
					found = true
					break
				}
			}
			if !found {
				missing = append(missing, layer)
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			fail("no metrics from required layers: %s", strings.Join(missing, ", "))
		}
	}
	fmt.Printf("metricslint: OK — %d families, %d samples\n", len(families), samples)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "metricslint: FAIL: "+format+"\n", args...)
	os.Exit(1)
}

func fetch(url, file string, retries int) (string, error) {
	switch {
	case url != "" && file != "":
		return "", fmt.Errorf("-url and -file are mutually exclusive")
	case file == "-":
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	case file != "":
		b, err := os.ReadFile(file)
		return string(b), err
	case url == "":
		return "", fmt.Errorf("one of -url or -file is required")
	}
	var lastErr error
	for i := 0; i < retries; i++ {
		if i > 0 {
			time.Sleep(time.Second)
		}
		resp, err := http.Get(url)
		if err != nil {
			lastErr = err
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("%s: status %d", url, resp.StatusCode)
			continue
		}
		return string(b), nil
	}
	return "", fmt.Errorf("%s unreachable after %d attempts: %v", url, retries, lastErr)
}

// family accumulates what the linter learned about one metric family.
type family struct {
	help, typ string
	samples   int
}

// histSeries is one histogram series (its labels but le) so far: the
// last le (-Inf before any) and its count, and _count (NaN until seen).
type histSeries struct{ le, cum, count float64 }

// lint walks the payload line by line; it returns the families seen, the
// total sample count, and one message per violation.
func lint(payload string) (map[string]*family, int, []string) {
	families := map[string]*family{}
	fam := func(name string) *family {
		f, ok := families[name]
		if !ok {
			f = &family{}
			families[name] = f
		}
		return f
	}
	hists := map[string]*histSeries{}
	var errs []string
	samples := 0
	for i, line := range strings.Split(payload, "\n") {
		bad := func(format string, args ...any) {
			errs = append(errs, fmt.Sprintf("line %d: %s: %q", i+1, fmt.Sprintf(format, args...), line))
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				bad("comment is neither HELP nor TYPE")
				continue
			}
			name := fields[2]
			if !namePat.MatchString(name) {
				bad("family %q does not match ^analytics_[a-z_]+$", name)
			}
			if fields[1] == "HELP" {
				fam(name).help = fields[3]
				continue
			}
			switch fields[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
				fam(name).typ = fields[3]
			default:
				bad("unknown TYPE %q", fields[3])
			}
			continue
		}
		name, labels, rest, err := splitSample(line)
		if err != nil {
			bad("%v", err)
			continue
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok && families[b] != nil {
				base = b
				break
			}
		}
		if !namePat.MatchString(base) {
			bad("metric %q does not match ^analytics_[a-z_]+$", base)
		}
		f, ok := families[base]
		if !ok {
			bad("sample for %q precedes its HELP/TYPE comments", base)
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			bad("value %q is not a float", rest)
			continue
		}
		f.samples++
		samples++
		if f.typ == "histogram" && name != base {
			series, le := base+"{", ""
			for j := 0; j < len(labels); j += 2 {
				if labels[j] == "le" {
					le = labels[j+1]
				} else {
					series += labels[j] + `="` + labels[j+1] + `",`
				}
			}
			h := hists[series]
			if h == nil {
				h = &histSeries{le: math.Inf(-1), count: math.NaN()}
				hists[series] = h
			}
			switch name[len(base):] {
			case "_bucket":
				bound, err := strconv.ParseFloat(le, 64)
				switch {
				case err != nil:
					bad("le %q is not a float", le)
				case !(bound > h.le):
					bad("le %v does not increase past %v", bound, h.le)
				case v < h.cum:
					bad("cumulative count %v falls below %v", v, h.cum)
				}
				h.le, h.cum = bound, v
			case "_count":
				h.count = v
			}
		}
	}
	for series, h := range hists {
		if !math.IsInf(h.le, 1) {
			errs = append(errs, fmt.Sprintf("histogram %s}: last le is not +Inf", series))
		} else if h.count != h.cum {
			errs = append(errs, fmt.Sprintf("histogram %s}: _count %v is not the +Inf bucket's %v", series, h.count, h.cum))
		}
	}
	for name, f := range families {
		if f.help == "" {
			errs = append(errs, fmt.Sprintf("family %s has no HELP", name))
		}
		if f.typ == "" {
			errs = append(errs, fmt.Sprintf("family %s has no TYPE", name))
		}
		if f.samples == 0 {
			errs = append(errs, fmt.Sprintf("family %s has no samples", name))
		}
	}
	return families, samples, errs
}

// tracelint validates a /debug/traces payload against the Chrome
// trace-event schema the tracer exports: a JSON object whose
// traceEvents array holds complete ("X"-phase) events — non-empty name,
// non-negative microsecond ts/dur, pid 1, a per-trace tid lane, and
// string-valued args carrying at least the trace_id/span_id pair — and
// whose only other member is the tracer's stats metadata. Events are
// decoded with unknown fields disallowed, so schema drift fails loudly.
func tracelint(payload string) (int, []string) {
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		Metadata    json.RawMessage   `json:"metadata"`
	}
	dec := json.NewDecoder(strings.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return 0, []string{fmt.Sprintf("payload is not a trace-event document: %v", err)}
	}
	if doc.TraceEvents == nil {
		return 0, []string{"no traceEvents array (an empty tracer must still emit one)"}
	}
	var errs []string
	idPat := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for i, raw := range doc.TraceEvents {
		bad := func(format string, args ...any) {
			errs = append(errs, fmt.Sprintf("event %d: %s", i, fmt.Sprintf(format, args...)))
		}
		var ev struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   *float64          `json:"ts"`
			Dur  *float64          `json:"dur"`
			Pid  *int              `json:"pid"`
			Tid  *uint64           `json:"tid"`
			Args map[string]string `json:"args"`
		}
		d := json.NewDecoder(strings.NewReader(string(raw)))
		d.DisallowUnknownFields()
		if err := d.Decode(&ev); err != nil {
			bad("not a trace event: %v", err)
			continue
		}
		if ev.Name == "" {
			bad("empty name")
		}
		if ev.Ph != "X" {
			bad("phase %q, want complete event %q", ev.Ph, "X")
		}
		if ev.Ts == nil || *ev.Ts < 0 {
			bad("missing or negative ts")
		}
		if ev.Dur == nil || *ev.Dur < 0 {
			bad("missing or negative dur")
		}
		if ev.Pid == nil || *ev.Pid != 1 {
			bad("pid is not the tracer's single process lane")
		}
		if ev.Tid == nil {
			bad("missing tid lane")
		}
		for _, key := range []string{"trace_id", "span_id"} {
			if !idPat.MatchString(ev.Args[key]) {
				bad("args[%s] %q is not 16 hex digits", key, ev.Args[key])
			}
		}
	}
	return len(doc.TraceEvents), errs
}

// splitSample splits `name{labels} value` (or `name value`) into the
// metric name, the label pairs (name, escaped value, alternating) and
// the value text, validating the label block's syntax.
func splitSample(line string) (name string, labels []string, value string, err error) {
	brace := strings.IndexByte(line, '{')
	if brace < 0 {
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			return "", nil, "", fmt.Errorf("no value")
		}
		return name, nil, value, nil
	}
	name = line[:brace]
	rest := line[brace+1:]
	// Walk the label pairs, honoring \" escapes inside quoted values.
	for {
		if strings.HasPrefix(rest, "}") {
			return name, labels, rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 || eq+1 >= len(rest) || rest[eq+1] != '"' {
			return "", nil, "", fmt.Errorf("malformed label block")
		}
		labelName := rest[:eq]
		if labelName == "" || strings.ContainsAny(labelName, `{}" `) {
			return "", nil, "", fmt.Errorf("malformed label name %q", labelName)
		}
		rest = rest[eq+2:]
		value := rest
		for {
			q := strings.IndexByte(rest, '"')
			if q < 0 {
				return "", nil, "", fmt.Errorf("unterminated label value")
			}
			// Count the backslashes before the quote: an odd run escapes it.
			bs := 0
			for j := q - 1; j >= 0 && rest[j] == '\\'; j-- {
				bs++
			}
			if bs%2 == 0 {
				rest = rest[q+1:]
				break
			}
			rest = rest[q+1:]
		}
		labels = append(labels, labelName, value[:len(value)-len(rest)-1])
		rest = strings.TrimPrefix(rest, ",")
	}
}
