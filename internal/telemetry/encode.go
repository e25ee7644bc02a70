package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in the registry in the
// Prometheus text exposition format (version 0.0.4): families sorted
// by name, series sorted by label set, one HELP and TYPE line per
// family. Histograms emit cumulative le buckets (final bucket +Inf),
// then _sum and _count. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var sb bytes.Buffer // reused across families: one buffer per scrape
	for _, fam := range r.sortedFamilies() {
		sb.Reset()
		fmt.Fprintf(&sb, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		fmt.Fprintf(&sb, "# TYPE %s %s\n", fam.name, fam.kind)
		for _, ch := range fam.sortedChildren() {
			switch fam.kind {
			case KindCounter:
				fmt.Fprintf(&sb, "%s%s %d\n", fam.name, braced(ch.labelKey), ch.counter.Value())
			case KindGauge:
				fmt.Fprintf(&sb, "%s%s %s\n", fam.name, braced(ch.labelKey), formatFloat(ch.gauge.Value()))
			case KindHistogram:
				writeHistogram(&sb, fam.name, ch)
			}
		}
		if _, err := w.Write(sb.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram series from one view of its
// counters: cumulative buckets with the series labels plus le, then
// _sum and _count.
func writeHistogram(sb *bytes.Buffer, name string, ch *child) {
	v := ch.hist.view()
	prefix := name + "_bucket{" + joinLabels(ch.labelKey, `le="`)
	for i, le := range leText {
		sb.WriteString(prefix)
		sb.WriteString(le)
		sb.WriteString(`"} `)
		sb.Write(strconv.AppendUint(sb.AvailableBuffer(), v.cum[i], 10))
		sb.WriteByte('\n')
	}
	fmt.Fprintf(sb, "%s_sum%s %s\n", name, braced(ch.labelKey), formatFloat(v.sum))
	fmt.Fprintf(sb, "%s_count%s %d\n", name, braced(ch.labelKey), v.count())
}

// sortedFamilies snapshots the registry's families sorted by name; none
// on a nil registry.
func (r *Registry) sortedFamilies() []*family {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]*family, 0, len(r.families))
	for _, fam := range r.families {
		out = append(out, fam)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// sortedChildren snapshots the family's series sorted by label key.
func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	out := make([]*child, 0, len(f.children))
	for _, ch := range f.children {
		out = append(out, ch)
	}
	f.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].labelKey < out[b].labelKey })
	return out
}

func braced(body string) string {
	if body == "" {
		return ""
	}
	return "{" + body + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP line per the text format: backslash and
// newline (double quotes are legal in HELP text).
func escapeHelp(help string) string {
	help = strings.ReplaceAll(help, `\`, `\\`)
	return strings.ReplaceAll(help, "\n", `\n`)
}

// SnapshotBucket is one cumulative histogram bucket in a Snapshot.
type SnapshotBucket struct {
	Le    string `json:"le"`
	Count uint64 `json:"count"`
}

// SnapshotSeries is one series in a Snapshot: its labels plus either a
// scalar value (counter, gauge) or the histogram aggregate.
type SnapshotSeries struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Count   *uint64           `json:"count,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	P50     *float64          `json:"p50,omitempty"`
	P95     *float64          `json:"p95,omitempty"`
	P99     *float64          `json:"p99,omitempty"`
	Buckets []SnapshotBucket  `json:"buckets,omitempty"`
}

// SnapshotFamily is one metric family in a Snapshot.
type SnapshotFamily struct {
	Name   string           `json:"name"`
	Type   string           `json:"type"`
	Help   string           `json:"help"`
	Series []SnapshotSeries `json:"series"`
}

// Snapshot renders the registry as a JSON-marshalable structure, the
// payload behind /debug/analytics. Families sort by name, series by
// label set; histogram series carry count, sum, p50/p95/p99 and the
// cumulative buckets. A nil registry snapshots empty.
func (r *Registry) Snapshot() []SnapshotFamily {
	out := []SnapshotFamily{}
	for _, fam := range r.sortedFamilies() {
		sf := SnapshotFamily{Name: fam.name, Type: fam.kind.String(), Help: fam.help}
		for _, ch := range fam.sortedChildren() {
			var labels map[string]string
			if len(ch.labels) > 0 {
				labels = make(map[string]string, len(ch.labels)/2)
				for i := 0; i < len(ch.labels); i += 2 {
					labels[ch.labels[i]] = ch.labels[i+1]
				}
			}
			ss := SnapshotSeries{Labels: labels}
			switch fam.kind {
			case KindCounter:
				v := float64(ch.counter.Value())
				ss.Value = &v
			case KindGauge:
				v := ch.gauge.Value()
				ss.Value = &v
			case KindHistogram:
				v := ch.hist.view()
				count, sum := v.count(), v.sum
				p50, p95, p99 := v.quantile(0.50), v.quantile(0.95), v.quantile(0.99)
				ss.Count, ss.Sum, ss.P50, ss.P95, ss.P99 = &count, &sum, &p50, &p95, &p99
				ss.Buckets = make([]SnapshotBucket, numBuckets)
				for i, le := range leText {
					ss.Buckets[i] = SnapshotBucket{Le: le, Count: v.cum[i]}
				}
			}
			sf.Series = append(sf.Series, ss)
		}
		out = append(out, sf)
	}
	return out
}
