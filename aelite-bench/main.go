// Command aelite-bench is the repository's end-to-end and per-layer
// benchmark. It runs one workload from a seed for a fixed time, checks
// every output, and prints its metrics as the last line of standard
// output:
//
//	{"correct": true, "attempted": 31, "failed": 0, "metrics": {"wall_s": {"value": 0.71, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// run alternates untraced and traced blocks of ops and prints the
// per-layer set. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

// defaultSeed is the seed whose outputs golden.json pins: the paper's
// Section VII use-case seed.
const defaultSeed = experiments.Sec7Seed

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aelite-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := options{blockSeconds: defaultBlockSeconds}
	fs.StringVar(&opts.workload, "workload", "", "workload: "+strings.Join(allWorkloads, " | "))
	fs.Int64Var(&opts.seed, "seed", defaultSeed, "input seed; the default seed is checked against golden.json")
	fs.Float64Var(&opts.seconds, "seconds", 10, "measurement time")
	trace := fs.Int("trace", 0, "1: print the per-layer metrics from a traced run")
	fs.BoolVar(&opts.smoke, "smoke", false, "smoke-size inputs (self-tests; goldens do not apply)")
	fs.IntVar(&opts.maxOps, "ops", 0, "stop after this many ops (0: time-bounded only)")
	fs.StringVar(&opts.out, "out", ".bench_build", "directory for spans, CPU profiles and serve state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "aelite-bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "aelite-bench: -trace %d must be 0 or 1\n", *trace)
		return 2
	case opts.seconds <= 0:
		fmt.Fprintf(stderr, "aelite-bench: -seconds %g must be positive\n", opts.seconds)
		return 2
	}
	opts.trace = *trace == 1
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintf(stderr, "aelite-bench: %v\n", err)
		return 1
	}
	opts.golden = g

	res, info, err := runBench(opts)
	if err != nil {
		fmt.Fprintf(stderr, "aelite-bench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"aelite_bench": info}); err != nil {
		fmt.Fprintf(stderr, "aelite-bench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "aelite-bench: %v\n", err)
		return 1
	}
	return 0
}
