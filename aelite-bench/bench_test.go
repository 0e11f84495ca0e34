package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The self-tests run every workload at smoke size for a few ops, so the
// whole file finishes in seconds.

func smokeOpts(t *testing.T, workload string) options {
	return options{
		workload: workload, seed: 3, seconds: 60, smoke: true, maxOps: 2,
		out: t.TempDir(), blockSeconds: 0,
	}
}

func mustRun(t *testing.T, opts options) (*result, *info) {
	t.Helper()
	res, in, err := runBench(opts)
	if err != nil {
		t.Fatalf("%s: %v", opts.workload, err)
	}
	return res, in
}

type benchJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchJSON(t *testing.T) benchJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(allWorkloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, allWorkloads)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, program has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, program has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

// TestEveryMetricPrinted runs each workload through the command line in
// both trace modes and checks that every metric BENCHMARK.json names is
// printed with its unit, and that every per-layer metric says whether it
// was measured.
func TestEveryMetricPrinted(t *testing.T) {
	b := loadBenchJSON(t)
	for _, w := range allWorkloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w, "--seed", "3", "--seconds", "60", "--trace", trace,
				"--smoke", "--ops", "2", "--out", t.TempDir()}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w, trace, err)
			}
			var in struct {
				Info info `json:"aelite_bench"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-2]), &in); err != nil {
				t.Fatalf("%s trace %s: info line: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed: %v", w, trace, res.Correct, res.Failed, res.Attempted, in.Info.Failures)
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
					if in.Info.Availability[m.Name] == "" {
						t.Errorf("%s: per-layer metric %s has no availability note", w, m.Name)
					}
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics printed, want %d", w, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, trace, name, got, unit)
				}
			}
			if trace == "0" {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}

// TestTracedRunMeasuresLayers runs each workload traced, alternating
// traced and untraced ops, and checks that every per-layer metric the
// workload measures was measured. CPU shares need profile samples, which
// smoke-size ops may not produce, and smoke plans may leave nothing for
// rip-up to repair; those are exempt.
func TestTracedRunMeasuresLayers(t *testing.T) {
	exempt := map[string]bool{"trace.ns_per_event": true, "slots.ripup_useful_frac": true}
	for _, w := range allWorkloads {
		opts := smokeOpts(t, w)
		opts.trace, opts.maxOps = true, 6
		res, in := mustRun(t, opts)
		if in.TracedOps == 0 || in.TracedOps == in.Ops {
			t.Errorf("%s: %d of %d ops traced, want both kinds", w, in.TracedOps, in.Ops)
		}
		for _, d := range perLayer {
			if !d.measuredOn(w) || exempt[d.name] || strings.HasSuffix(d.name, ".cpu_frac") {
				continue
			}
			if got := in.Availability[d.name]; got != "measured" {
				t.Errorf("%s: %s is %q", w, d.name, got)
			}
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d failed: %v", w, res.Failed, res.Attempted, in.Failures)
		}
		if _, err := os.Stat(in.Spans); err != nil {
			t.Errorf("%s: spans not written: %v", w, err)
		}
	}
}

// TestWrongGoldenFailsEveryOp plants a wrong golden digest: every
// operation the digest covers must count as failed.
func TestWrongGoldenFailsEveryOp(t *testing.T) {
	for _, w := range []string{wSec7, wMesh8, wServe} {
		opts := smokeOpts(t, w)
		opts.checkGolden = true
		opts.golden = map[string]string{w: strings.Repeat("0", 64)}
		if w == wServe {
			opts.maxOps = goldenJobs
		}
		res, _ := mustRun(t, opts)
		if res.Failed != res.Attempted || res.Correct {
			t.Errorf("%s with a wrong golden: %d of %d failed, correct %v; want all failed", w, res.Failed, res.Attempted, res.Correct)
		}
	}
}

func TestSameSeedSameDigest(t *testing.T) {
	for _, w := range allWorkloads {
		_, a := mustRun(t, smokeOpts(t, w))
		_, b := mustRun(t, smokeOpts(t, w))
		if a.Output == "" || a.Output != b.Output || a.Inputs != b.Inputs {
			t.Errorf("%s: two same-seed runs give outputs %s / %s, inputs %s / %s",
				w, short(a.Output), short(b.Output), short(a.Inputs), short(b.Inputs))
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, w := range allWorkloads {
		opts := smokeOpts(t, w)
		seen := map[string]int64{}
		for _, seed := range []int64{defaultSeed, 1, 2} {
			opts.seed = seed
			wl, err := newWorkload(opts)
			if err != nil {
				t.Fatal(err)
			}
			h := wl.inputs()
			if strings.HasPrefix(h, "error") {
				t.Fatalf("%s seed %d: %s", w, seed, h)
			}
			if prev, dup := seen[h]; dup {
				t.Errorf("%s: seeds %d and %d generate the same inputs", w, prev, seed)
			}
			seen[h] = seed
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/router.(*Component).Step":                    "router",
		"repro/internal/sim.(*Wire[...]).Commit":                     "sim",
		"repro/internal/sim.(*Wire[repro/internal/phit.Phit]).Drive": "sim",
		"repro/internal/ni.(*NI).Update.func1":                       "ni",
		"repro/internal/spec.Random":                                 "other",
		"runtime.mallocgc":                                           "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                     "runtime",
		"net/http.(*conn).serve":                                     "other",
		"main.(*bench).runOp":                                        "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestRefusesBareCheckout runs the wrapper in a directory holding only
// BENCHMARK.json and the benchmark's own files: it must fail without
// printing a result.
func TestRefusesBareCheckout(t *testing.T) {
	dir := t.TempDir()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "aelite-bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "aelite-bench", f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "aelite-bench/run.sh", "--workload", wSec7, "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run.sh succeeded in a bare checkout: %s", out)
	}
	if strings.Contains(string(out), `"metrics"`) {
		t.Errorf("run.sh printed a result in a bare checkout: %s", out)
	}
}
