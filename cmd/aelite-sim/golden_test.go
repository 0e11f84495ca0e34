package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

// goldenPath holds one SHA-256 digest per (case, artifact) pair of the
// golden matrix below, plus each case's exit code.
const goldenPath = "testdata/golden.sha256"

// goldenCase is one aelite-sim invocation of the byte-identity matrix.
type goldenCase struct {
	name string
	set  func(*options)
}

// goldenMatrix is the fixed set of runs whose rendered report, metrics
// JSON and Chrome trace must never drift: every clocking mode under plain,
// transactional, probed+audited, fast-replay and fault-campaign runs, the
// reliability shell with rate faults and a reconfiguration script in the
// two clocked modes, a skewed mesochronous campaign, a -runs campaign
// sweep, a generated 8x8 scenario (wide header layout), and the two other
// backends plus the "be" alias with its verdict-only output.
func goldenMatrix() []goldenCase {
	var cs []goldenCase
	for _, mode := range []string{"synchronous", "mesochronous", "asynchronous"} {
		variants := []goldenCase{
			{"plain", func(o *options) {}},
			{"tx", func(o *options) { o.tx = true }},
			{"probes-audit", func(o *options) { o.probes, o.audit = true, true }},
			{"fast", func(o *options) { o.fast = true }},
			// random:N draws its events from 1-50 us; measure long
			// enough for all six to land.
			{"faults", func(o *options) { o.faults, o.faultSeed, o.measure = "random:6", 42, 48000 }},
		}
		if mode != "asynchronous" {
			variants = append(variants,
				goldenCase{"reliable-rates", func(o *options) {
					o.reliable, o.bitflip, o.drop, o.faultSeed = true, 0.01, 0.001, 42
				}},
				goldenCase{"reconfig", func(o *options) { o.reconfig = "close@2000:3;open@4000:0:5:50:3000" }},
			)
		}
		for _, v := range variants {
			cs = append(cs, goldenCase{mode + "/" + v.name, func(o *options) {
				o.mode = mode
				v.set(o)
			}})
		}
	}
	cs = append(cs,
		goldenCase{"synchronous/aethereal", func(o *options) { o.backend = "aethereal" }},
		goldenCase{"synchronous/routerless", func(o *options) { o.backend = "routerless" }},
		goldenCase{"synchronous/be", func(o *options) { o.backend = "be" }},
		goldenCase{"mesochronous/skew-900", func(o *options) { o.mode, o.skewPS = "mesochronous", 900 }},
		goldenCase{"synchronous/scenario-8x8", func(o *options) {
			o.Random, o.Scenario, o.Conns, o.Cols, o.Rows = 0, "uniform", 40, 8, 8
		}},
		goldenCase{"synchronous/runs-sweep", func(o *options) { o.runs, o.jobs, o.faults = 3, 2, "random:3" }},
	)
	return cs
}

// goldenOptions is the flag defaults of main plus the matrix's shared
// workload: 20 random connections on the default 4x3 mesh.
func goldenOptions() options {
	return options{
		Workload: cli.Workload{Random: 20, Seed: 1, Cols: 4, Rows: 3, NIs: 4, FreqMHz: 500},
		backend:  "aelite", mode: "synchronous",
		warmup: 2000, measure: 10000,
		faultSeed: 1, runs: 1, jobs: 1, alloc: "greedy",
	}
}

// runGolden executes one case in-process and returns its exit code and
// the digests of its stdout, metrics JSON and Chrome trace.
func runGolden(t *testing.T, c goldenCase) []string {
	t.Helper()
	dir := t.TempDir()
	o := goldenOptions()
	c.set(&o)
	// A -runs sweep writes no trace or metrics file; only its stdout is
	// digested.
	sweep := o.runs > 1
	if !sweep {
		o.traceOut = filepath.Join(dir, "trace.json")
		o.metricsOut = filepath.Join(dir, "metrics.json")
	}
	if err := o.validate(); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	stdoutPath := filepath.Join(dir, "stdout.txt")
	f, err := os.Create(stdoutPath)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	code := run(o)
	os.Stdout = saved
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	lines := []string{fmt.Sprintf("%s exit %d", c.name, code)}
	streams := []struct{ stream, path string }{
		{"stdout", stdoutPath}, {"metrics", o.metricsOut}, {"trace", o.traceOut},
	}
	if sweep {
		streams = streams[:1]
	}
	for _, a := range streams {
		b, err := os.ReadFile(a.path)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(b)
		lines = append(lines, fmt.Sprintf("%s %s %s", c.name, a.stream, hex.EncodeToString(sum[:])))
	}
	return lines
}

// TestGoldenOutputs pins the simulator's observable output byte for byte:
// any change to a rendered report, the metrics JSON or the event stream of
// the matrix fails here. Performance work must leave every digest alone;
// a deliberate behaviour change regenerates the file from the "got" lines
// this test logs on mismatch.
func TestGoldenOutputs(t *testing.T) {
	want := map[string]bool{}
	gf, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(gf)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" && !strings.HasPrefix(l, "#") {
			want[l] = true
		}
	}
	gf.Close()

	var got []string
	drift := 0
	for _, c := range goldenMatrix() {
		for _, l := range runGolden(t, c) {
			got = append(got, l)
			if !want[l] {
				drift++
				t.Errorf("drift: %s", l)
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d golden lines, matrix produced %d", len(want), len(got))
	}
	if drift > 0 || len(got) != len(want) {
		t.Logf("got:\n%s", strings.Join(got, "\n"))
	}
}
