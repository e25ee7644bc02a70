package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// The fast experiments run directly in tests; the heavyweight ones are
// covered by bench_test.go at the repo root (one testing.B per table) and
// by cmd/streambench.

func checkTable(t *testing.T, table Table) {
	t.Helper()
	if table.ID == "" || table.Title == "" {
		t.Fatalf("table missing id/title: %+v", table)
	}
	if len(table.Header) == 0 || len(table.Rows) == 0 {
		t.Fatalf("%s: empty table", table.ID)
	}
	for _, row := range table.Rows {
		if len(row) != len(table.Header) {
			t.Fatalf("%s: row width %d != header width %d (%v)",
				table.ID, len(row), len(table.Header), row)
		}
	}
	s := table.String()
	if !strings.Contains(s, table.ID) {
		t.Fatalf("%s: render missing id", table.ID)
	}
}

func TestFastTablesWellFormed(t *testing.T) {
	for _, build := range []func() Table{
		T1_03_Correlation,
		T1_08_Inversions,
		T1_10_PathAnalysis,
		T1_12_TemporalPatterns,
		T1_13_Prediction,
		S2_1_Histograms,
		S2_2_Wavelets,
		A2_SparseDenseCrossover,
		A5_GKCompression,
	} {
		checkTable(t, build())
	}
}

func TestPathAnalysisAnswersMatchWant(t *testing.T) {
	table := T1_10_PathAnalysis()
	for _, row := range table.Rows {
		answer, want := row[3], row[4]
		if !strings.HasPrefix(want, answer) {
			t.Fatalf("T1.10 row %v: answer %q does not match want %q", row, answer, want)
		}
	}
}

func TestWaveletErrorMonotone(t *testing.T) {
	table := S2_2_Wavelets()
	prev := 1e300
	for _, row := range table.Rows {
		var e float64
		if _, err := sscan(row[1], &e); err != nil {
			t.Fatalf("unparseable error cell %q", row[1])
		}
		if e > prev+1e-9 {
			t.Fatalf("wavelet error not monotone: %v after %v", e, prev)
		}
		prev = e
	}
}

// sscan parses a float cell produced by f().
func sscan(s string, out *float64) (int, error) {
	return fmt.Sscan(s, out)
}

// The Builders registry is what cmd/streambench selects and lists by, so
// its IDs must be unique and must match the IDs of the tables they build
// (checked on the fast builders; the slow ones share the same literal
// convention).
func TestBuildersRegistryConsistent(t *testing.T) {
	seen := map[string]bool{}
	count := 0
	fast := map[string]bool{
		"T1.3": true, "T1.8": true, "T1.10": true, "T1.12": true,
		"T1.13": true, "S2.1": true, "S2.2": true, "A2": true, "A5": true,
	}
	for _, b := range Builders() {
		if b.ID == "" || b.Title == "" || b.Build == nil {
			t.Fatalf("incomplete builder %+v", b)
		}
		if seen[b.ID] {
			t.Fatalf("duplicate builder id %s", b.ID)
		}
		seen[b.ID] = true
		count++
		if fast[b.ID] {
			if got := b.Build().ID; got != b.ID {
				t.Fatalf("builder id %s builds table id %s", b.ID, got)
			}
		}
	}
	if count != 31 {
		t.Fatalf("expected 31 experiments, registry has %d", count)
	}
}
