// Command bench is the repository's one repeatable benchmark: it starts
// the real cmd/analyticsd on a loopback socket, drives it with a fixed,
// seeded, open-loop schedule, checks the answers and prints every metric
// by name. See README.md.
//
//	bench [run] --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bench trace --workload <name> [--seed <n>]
//	bench agree [--runs <n>] [--seconds <s>]
//	bench hash  --workload <name> [--seed <n>] [--seconds <s>]
//	bench spin  --cpu <n>   (internal: keepAwake's spinner, see quiet.go)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	args := os.Args[1:]
	mode := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("bench "+mode, flag.ExitOnError)
	workload := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "generator seed")
	seconds := fs.Int("seconds", defaultSeconds, "seconds of schedule to measure (whole rounds of 2 s)")
	trace := fs.Int("trace", 0, "1 adds the in-process layer ladder and prints the per-layer metrics")
	runs := fs.Int("runs", 5, "agree: runs per set")
	jsonPath := fs.String("json", "out/agree.json", "agree: where to write the report")
	cpu := fs.Int("cpu", 0, "spin: the CPU to keep awake")
	_ = fs.Parse(args)

	var err error
	switch mode {
	case "run":
		err = cmdRun(options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, table: os.Stdout})
	case "trace":
		err = cmdTrace(*workload, *seed)
	case "agree":
		err = cmdAgree(*runs, *seconds, *jsonPath)
	case "hash":
		err = cmdHash(*workload, *seed, *seconds)
	case "spin": // internal: see keepAwake
		err = cmdSpin(*cpu)
	default:
		err = fmt.Errorf("bench: unknown mode %q (run, trace, agree, hash)", mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

// cmdRun is the contract's entry point: one socket run, the table, and
// the result object as the last line of standard output.
func cmdRun(o options) error {
	out, err := runWorkload(o)
	if err != nil {
		return err
	}
	fmt.Println(resultLine(out, o.trace))
	return nil
}

// cmdTrace runs the in-process layer ladder alone: no socket, no
// end-to-end numbers, just the per-layer table and the span file.
func cmdTrace(workload string, seed uint64) error {
	s, ok := specByName(workload)
	if !ok {
		return fmt.Errorf("bench: unknown workload %q", workload)
	}
	p, err := buildPlan(s, seed, defaultSeconds/roundSeconds, false)
	if err != nil {
		return err
	}
	ly := map[string]float64{}
	if err := ladder(p, ly); err != nil {
		return err
	}
	fmt.Printf("workload %s  seed %d  layer ladder over the first %d requests\n", workload, seed, ladderRequests)
	for _, m := range perLayer {
		if v, ok := ly[m.name]; ok {
			fmt.Printf("%-42s %-6s %14.3f\n", m.name, m.unit, v)
		}
	}
	return nil
}

// cmdHash prints the request-sequence hash of a plan without running it.
func cmdHash(workload string, seed uint64, seconds int) error {
	s, ok := specByName(workload)
	if !ok {
		return fmt.Errorf("bench: unknown workload %q", workload)
	}
	p, err := buildPlan(s, seed, seconds/roundSeconds, false)
	if err != nil {
		return err
	}
	fmt.Println(p.sequenceHash())
	return nil
}
