// Package experiments regenerates every table and figure of the
// tutorial's evaluation surface (Table 1's seventeen problem rows,
// Section 2's synopsis structures, Table 2's platform design space, and
// Figure 1's Lambda Architecture) as measurable artifacts: each experiment
// runs a deterministic workload through the relevant implementations and
// reports accuracy, memory and ordering results as a formatted table.
//
// cmd/streambench prints them all; bench_test.go wraps each in a
// testing.B benchmark; EXPERIMENTS.md records the outcomes against the
// paper's qualitative claims.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's result: a title, column headers, and rows.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper's qualitative claim this table checks
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&sb, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

// f formats a float compactly.
func f(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000000:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// pct formats a ratio as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// d formats an integer.
func d[T int | int64 | uint64](v T) string { return fmt.Sprintf("%d", v) }

// Builder names one experiment without running it, so callers can list or
// select experiments (cmd/streambench) without paying for the whole suite.
type Builder struct {
	ID    string
	Title string
	Build func() Table
}

// Builders returns every experiment in presentation order.
func Builders() []Builder {
	return []Builder{
		{"T1.1", "Table 1 row: sampling", T1_01_Sampling},
		{"T1.2", "Table 1 row: filtering", T1_02_Filtering},
		{"T1.3", "Table 1 row: correlation", T1_03_Correlation},
		{"T1.4", "Table 1 row: cardinality", T1_04_Cardinality},
		{"T1.5", "Table 1 row: quantiles", T1_05_Quantiles},
		{"T1.6", "Table 1 row: moments", T1_06_Moments},
		{"T1.7", "Table 1 row: frequent elements", T1_07_FrequentElements},
		{"T1.8", "Table 1 row: inversions", T1_08_Inversions},
		{"T1.9", "Table 1 row: subsequences", T1_09_Subsequences},
		{"T1.10", "Table 1 row: path analysis", T1_10_PathAnalysis},
		{"T1.11", "Table 1 row: anomaly detection", T1_11_Anomaly},
		{"T1.12", "Table 1 row: temporal patterns", T1_12_TemporalPatterns},
		{"T1.13", "Table 1 row: prediction", T1_13_Prediction},
		{"T1.14", "Table 1 row: clustering", T1_14_Clustering},
		{"T1.15", "Table 1 row: graph analysis", T1_15_GraphAnalysis},
		{"T1.16", "Table 1 row: basic counting", T1_16_BasicCounting},
		{"T1.17", "Table 1 row: significant ones", T1_17_SignificantOnes},
		{"S2.1", "Section 2: histograms", S2_1_Histograms},
		{"S2.2", "Section 2: wavelets", S2_2_Wavelets},
		{"T2.1", "Table 2: delivery semantics", T2_1_Semantics},
		{"T2.2", "Table 2: stream groupings", T2_2_Grouping},
		{"T2.3", "Table 2: partitioned log", T2_3_Broker},
		{"T2.4", "Sharded sketch store serving", T2_4_SketchStore},
		{"T3.1", "Partitioned store cluster", T3_1_ClusterStore},
		{"F1", "Figure 1: Lambda Architecture", F1_Lambda},
		{"F1.2", "Store-backed Lambda vs oracle", F1_2_StoreLambda},
		{"A1", "Ablation: conservative update", A1_ConservativeUpdate},
		{"A2", "Ablation: sparse/dense crossover", A2_SparseDenseCrossover},
		{"A3", "Ablation: double hashing", A3_DoubleHashing},
		{"A4", "Ablation: acking overhead", A4_AckingOverhead},
		{"A5", "Ablation: GK compression", A5_GKCompression},
	}
}

// All runs every experiment and returns the tables in presentation order.
func All() []Table {
	builders := Builders()
	tables := make([]Table, 0, len(builders))
	for _, b := range builders {
		tables = append(tables, b.Build())
	}
	return tables
}
