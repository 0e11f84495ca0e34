package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is the line before it: what ran, what was checked, and for
// traced runs whether each per-layer metric was measured.
type info struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Trace        bool              `json:"trace"`
	Ops          int               `json:"ops"`
	TracedOps    int               `json:"traced_ops"`
	SetupSamples int               `json:"setup_samples"`
	Inputs       string            `json:"inputs_sha256"`
	Output       string            `json:"output_sha256,omitempty"`
	Golden       string            `json:"golden"`
	Failures     []string          `json:"failures,omitempty"`
	Availability map[string]string `json:"availability,omitempty"`
	Spans        string            `json:"spans,omitempty"`
}

// In a traced run, fromUntraced metrics (end-to-end figures) are read
// from the untraced ops, summed ones from every op, and all other per-op
// metrics from the traced ops.
var (
	fromUntraced = map[string]bool{"sim_kcycles_per_s": true, "placed_frac": true}
	summed       = map[string]bool{"audit.violations": true, "serve.retries": true}
)

func (b *bench) result() (*result, *info, error) {
	res := &result{Metrics: make(map[string]metric)}
	in := &info{
		Workload: b.opts.workload, Seed: b.opts.seed, Trace: b.opts.trace,
		Ops: len(b.ops), SetupSamples: len(b.setups), Inputs: b.w.inputs(), Output: b.refHash,
		Failures: b.notes,
	}
	switch {
	case !b.opts.goldenApplies():
		in.Golden = "not applied: same-seed repeats and invariants checked instead"
	case b.opts.golden[b.opts.workload] == "":
		in.Golden = "none pinned for this workload: invariants and same-seed repeats checked"
	default:
		in.Golden = "checked against " + short(b.opts.golden[b.opts.workload])
	}
	var wall, alloc, wallTraced []float64
	for _, r := range b.ops {
		res.Attempted += attempted(r)
		res.Failed += r.failed
		if r.traced {
			in.TracedOps++
			wallTraced = append(wallTraced, r.wallS)
			continue
		}
		wall = append(wall, r.wallS)
		alloc = append(alloc, r.allocMB)
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		return nil, nil, fmt.Errorf("no op ran")
	}

	if !b.opts.trace {
		res.Metrics["setup_s"] = metric{median(b.setups), "s"}
		res.Metrics["wall_s"] = metric{median(wall), "s"}
		res.Metrics["alloc_mb"] = metric{median(alloc), "MB"}
		res.Metrics["max_rss_mb"] = metric{maxRSSMB(), "MB"}
		return res, in, nil
	}

	vals := b.layerValues(float64(res.Failed)/float64(res.Attempted), wall, wallTraced)
	in.Availability = make(map[string]string)
	for _, d := range perLayer {
		v, ok := vals[d.name]
		switch {
		case !d.measuredOn(b.opts.workload):
			in.Availability[d.name] = "unavailable: " + d.unavailable
			v = 0
		case !ok:
			in.Availability[d.name] = "not measured: no successful op reported it"
		default:
			in.Availability[d.name] = "measured"
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	path := filepath.Join(b.opts.out, fmt.Sprintf("spans-%s-s%d.json", b.opts.workload, b.opts.seed))
	buf, err := json.Marshal(b.rec.spans)
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return nil, nil, err
	}
	in.Spans = path
	return res, in, nil
}

func attempted(r *opRecord) int {
	if r.out != nil {
		return r.out.attempted
	}
	return 1
}

// layerValues aggregates the per-layer metrics of a traced run.
func (b *bench) layerValues(failedFrac float64, wall, wallTraced []float64) map[string]float64 {
	per := make(map[string][]float64)
	sums := make(map[string]float64)
	var jobMs []float64
	for _, r := range b.ops {
		if r.out == nil {
			continue
		}
		for k, v := range r.out.vals {
			switch {
			case k == "job_ms":
				jobMs = append(jobMs, v)
			case summed[k]:
				sums[k] += v
			case fromUntraced[k] && !r.traced, !fromUntraced[k] && r.traced:
				per[k] = append(per[k], v)
			}
		}
	}
	vals := make(map[string]float64)
	for k, xs := range per {
		vals[k] = median(xs)
	}
	for k, v := range sums {
		vals[k] = v
	}
	if len(jobMs) > 0 {
		vals["job_p50_ms"] = quantile(jobMs, 0.5)
		vals["job_p90_ms"] = quantile(jobMs, 0.9)
	}
	for k, v := range b.runVals {
		vals[k] = v
	}
	vals["failed_frac"] = failedFrac
	vals["bench.ops"] = float64(len(b.ops))
	if len(wall) > 0 && len(wallTraced) > 0 {
		vals["bench.trace_overhead_frac"] = median(wallTraced)/median(wall) - 1
	}
	if b.cpu.total > 0 {
		for _, m := range cpuModules {
			vals[m+".cpu_frac"] = b.cpu.frac(m)
		}
	}
	var events float64
	for _, r := range b.ops {
		if r.traced && r.out != nil {
			events += r.out.vals["trace.events"]
		}
	}
	if events > 0 {
		vals["trace.ns_per_event"] = float64(b.cpu.ns["trace"]) / events
	}
	return vals
}

// maxRSSMB is the process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
