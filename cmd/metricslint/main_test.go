package main

import (
	"strings"
	"testing"
)

const goodHistogram = `# HELP analytics_x_seconds Latency.
# TYPE analytics_x_seconds histogram
analytics_x_seconds_bucket{layer="a",le="0.5"} 1
analytics_x_seconds_bucket{layer="a",le="1"} 1
analytics_x_seconds_bucket{layer="a",le="+Inf"} 3
analytics_x_seconds_sum{layer="a"} 4.2
analytics_x_seconds_count{layer="a"} 3
analytics_x_seconds_bucket{layer="b",le="0.5"} 0
analytics_x_seconds_bucket{layer="b",le="+Inf"} 0
analytics_x_seconds_sum{layer="b"} 0
analytics_x_seconds_count{layer="b"} 0
`

// TestLintHistogramShape: the good exposition lints clean, and each
// shape rule catches the one exposition that breaks it.
func TestLintHistogramShape(t *testing.T) {
	for _, c := range []struct {
		name, payload, want string
	}{
		{"good", goodHistogram, ""},
		{"le not increasing", strings.Replace(goodHistogram, `le="1"}`, `le="0.5"}`, 1), "does not increase"},
		{"cumulative count falls", strings.Replace(goodHistogram, `le="1"} 1`, `le="1"} 0`, 1), "falls below"},
		{"last le not +Inf", strings.Replace(goodHistogram, `layer="b",le="+Inf"`, `layer="b",le="2"`, 1), "last le is not +Inf"},
		{"_count differs from +Inf", strings.Replace(goodHistogram, `_count{layer="a"} 3`, `_count{layer="a"} 2`, 1), "is not the +Inf bucket"},
	} {
		_, samples, errs := lint(c.payload)
		if samples != 9 {
			t.Errorf("%s: %d samples, want 9", c.name, samples)
		}
		joined := strings.Join(errs, "\n")
		if c.want == "" && len(errs) != 0 || c.want != "" && (len(errs) != 1 || !strings.Contains(joined, c.want)) {
			t.Errorf("%s: errors %q, want %q", c.name, errs, c.want)
		}
	}
}
