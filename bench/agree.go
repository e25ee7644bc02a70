package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// benchmarkFile is the part of ../BENCHMARK.json the agreement check
// reads: each end-to-end metric's regression bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBounds() (map[string]float64, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range f.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// agreement is one (workload, metric) row of the agree report.
type agreement struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	A        summary   `json:"a"`
	B        summary   `json:"b"`
	SpreadA  float64   `json:"spread_a"` // (q3-q1)/median across set A's runs
	SpreadB  float64   `json:"spread_b"`
	Diff     float64   `json:"diff"` // |median B - median A| / median A
	Bound    float64   `json:"bound"`
	Breach   bool      `json:"breach"`
	ValuesA  []float64 `json:"values_a"`
	ValuesB  []float64 `json:"values_b"`
}

// agreeReport is what `bench agree` writes; the copy from the reference
// machine is checked in as baseline.json.
type agreeReport struct {
	Machine struct {
		NProc     int    `json:"nproc"`
		CPUModel  string `json:"cpu_model"`
		GoVersion string `json:"go_version"`
		Kernel    string `json:"kernel"`
	} `json:"machine"`
	Runs    int         `json:"runs_per_set"`
	Seconds int         `json:"seconds"`
	Rows    []agreement `json:"rows"`
}

func cpuModel() string {
	raw, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// oneRun invokes this binary the way the contract's driver does and
// parses the result line.
func oneRun(workload string, seed, seconds int) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "run", "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench: run %s seed %d: %v\n%s", workload, seed, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("bench: run %s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("bench: run %s seed %d reported failures", workload, seed)
	}
	vals := map[string]float64{}
	for name, m := range res.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}

// cmdAgree runs two interleaved sets (A B A B ...) of every workload on
// the current tree, one seed per pair, and compares them by the rules
// the contract's driver applies: within a set, each metric's spread
// (interquartile distance over the median; setup_s exempt) must stay
// within its bound, and between the sets the medians must agree within
// the bound. It exits non-zero on a breach.
func cmdAgree(runs, seconds int, jsonPath string) error {
	bounds, err := readBounds()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for r := 1; r <= runs; r++ {
		for set := range sets {
			for _, s := range specs {
				fmt.Fprintf(os.Stderr, "agree: run %d/%d set %c %s\n", r, runs, 'A'+set, s.name)
				vals, err := oneRun(s.name, r, seconds)
				if err != nil {
					return err
				}
				for name, v := range vals {
					k := key{s.name, name}
					sets[set][k] = append(sets[set][k], v)
				}
			}
		}
	}
	var rep agreeReport
	rep.Machine.NProc, rep.Machine.CPUModel, rep.Machine.GoVersion = runtime.NumCPU(), cpuModel(), runtime.Version()
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		rep.Machine.Kernel = strings.TrimSpace(string(raw))
	}
	rep.Runs, rep.Seconds = runs, seconds
	breaches := 0
	fmt.Printf("%-14s %-22s %-4s %10s %8s %10s %8s %7s %6s\n",
		"workload", "metric", "unit", "median A", "spread A", "median B", "spread B", "diff", "bound")
	for _, s := range specs {
		for _, m := range endToEnd {
			k := key{s.name, m.name}
			a, b := sets[0][k], sets[1][k]
			row := agreement{Workload: s.name, Metric: m.name, Unit: m.unit, A: summarize(a, median), B: summarize(b, median),
				SpreadA: spread(a), SpreadB: spread(b), Bound: bounds[m.name], ValuesA: a, ValuesB: b}
			row.Diff = math.Abs(row.B.Median-row.A.Median) / row.A.Median
			row.Breach = row.Diff > row.Bound ||
				(m.name != "setup_s" && (row.SpreadA > row.Bound || row.SpreadB > row.Bound))
			mark := ""
			if row.Breach {
				breaches++
				mark = "  BREACH"
			}
			fmt.Printf("%-14s %-22s %-4s %10.4f %8.4f %10.4f %8.4f %7.4f %6.2f%s\n", s.name, m.name, m.unit,
				row.A.Median, row.SpreadA, row.B.Median, row.SpreadB, row.Diff, row.Bound, mark)
			rep.Rows = append(rep.Rows, row)
		}
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(jsonPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if breaches > 0 {
		return fmt.Errorf("bench: agree: %d metric/workload pairs breach their bound", breaches)
	}
	return nil
}
