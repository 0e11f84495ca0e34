package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/phit"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/topology"
)

// simWorkload builds one aelite network through the backend seam per op,
// runs it, and checks the rendered report: sec7_tx and mesh8_cbr_meso.
type simWorkload struct {
	gen       func() (*topology.Mesh, *spec.UseCase, error)
	params    backend.Params
	warmupNs  float64
	measureNs float64

	// Made by setup.
	inst         backend.Instance
	genS, buildS float64
}

// newSec7 is the paper's Section VII use case: 70 IPs and 200
// connections on a 4x3 mesh with 4 NIs per router, transactional
// traffic, aelite synchronous at 500 MHz. The default seed runs it
// unchanged. Randomly drawn Section VII use cases are mostly infeasible
// (their bandwidth alone oversubscribes a link), so another seed derives
// a variant of the paper's one instead (see loosenBudgets).
func newSec7(opts options) *simWorkload {
	w := &simWorkload{
		params: backend.Params{
			FreqMHz: 500, Mode: core.Synchronous, Transactional: true, FastReplay: true,
		},
		warmupNs: 10000, measureNs: 60000,
	}
	if opts.smoke {
		// Shorter windows cut transactional bursts short of the
		// throughput requirements.
		w.warmupNs, w.measureNs = 2000, 20000
	}
	w.gen = func() (*topology.Mesh, *spec.UseCase, error) {
		m := experiments.Sec7Mesh()
		core.PrepareTopology(m, core.Config{Mode: w.params.Mode})
		uc, err := experiments.Sec7UseCase(m, experiments.Sec7Seed)
		if err != nil {
			return nil, nil, err
		}
		loosenBudgets(uc, opts.seed)
		return m, uc, nil
	}
	return w
}

// loosenBudgets derives a seed's variant of a published use case: each
// connection's latency budget is raised by up to 20%, drawn from the
// seed; rates stay as published, so every variant offers the same traffic
// and asks the allocator the same bandwidth question. A looser budget only
// frees slots, so every variant remains feasible; at 20% nearly every
// Section VII variant settles on the same table size (64), where at 10%
// one in five needs 96 and builds more. The default seed leaves the use
// case unchanged.
func loosenBudgets(uc *spec.UseCase, seed int64) {
	if seed == defaultSeed {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range uc.Connections {
		uc.Connections[i].MaxLatencyNs *= 1 + 0.2*rng.Float64()
	}
}

// newMesh8 is the 8x8 generated scenario: the uniform family with 200
// connections at quantised CBR rates, 2 NIs per router, aelite
// mesochronous with the wide 64-bit header and fast replay on.
func newMesh8(opts options) *simWorkload {
	w := &simWorkload{
		params: backend.Params{
			Layout: phit.WideLayout, WordBytes: 8, FreqMHz: 500,
			Mode: core.Mesochronous, FastReplay: true,
		},
		warmupNs: 10000, measureNs: 40000,
	}
	if opts.smoke {
		w.warmupNs, w.measureNs = 1000, 4000
	}
	w.gen = func() (*topology.Mesh, *spec.UseCase, error) {
		scfg := scenario.Default(scenario.Uniform, 8, 8, 200, opts.seed)
		scfg.WordBytes = w.params.WordBytes
		s, err := scenario.Generate(scfg)
		if err != nil {
			return nil, nil, err
		}
		return s.Mesh(), s.UseCase, nil
	}
	return w
}

func (w *simWorkload) shared() bool        { return false }
func (w *simWorkload) close() error        { return nil }
func (w *simWorkload) finish(*bench) error { return nil }

func (w *simWorkload) inputs() string {
	_, uc, err := w.gen()
	if err != nil {
		return "error: " + err.Error()
	}
	b, err := json.Marshal(uc)
	if err != nil {
		return "error: " + err.Error()
	}
	return sha(b)
}

// setup generates the use case from the seed, maps it, and builds the
// network through the seam (PrepareTopology and the table-size search
// run inside Build).
func (w *simWorkload) setup(o *op) error {
	var (
		m   *topology.Mesh
		uc  *spec.UseCase
		err error
	)
	d, err := o.span("spec.gen", func() error {
		m, uc, err = w.gen()
		return err
	})
	if err != nil {
		return err
	}
	w.genS = d.Seconds()
	b, err := backend.ByName("aelite")
	if err != nil {
		return err
	}
	d, err = o.span("backend.build", func() error {
		w.inst, err = b.Build(m, uc, w.params)
		return err
	})
	w.buildS = d.Seconds()
	return err
}

func (w *simWorkload) op(o *op) (*outcome, error) {
	var rep *core.Report
	d, _ := o.span("sim.run", func() error {
		rep = w.inst.Run(w.warmupNs, w.measureNs)
		return nil
	})
	runS := d.Seconds()
	out := &outcome{attempted: 1}
	_, _ = o.span("check", func() error {
		var buf bytes.Buffer
		rep.Write(&buf)
		out.digest = sha(buf.Bytes())
		out.problems = reportProblems(rep)
		return nil
	})
	cycles := (w.warmupNs + w.measureNs) * w.params.FreqMHz / 1e3
	out.vals = map[string]float64{
		"spec.gen_s":        w.genS,
		"backend.build_s":   w.buildS,
		"core.table_size":   float64(rep.TableSize),
		"sim.run_s":         runS,
		"sim.edges":         float64(rep.TotalEdges),
		"sim_kcycles_per_s": cycles / 1e3 / runS,
	}
	if rep.TotalEdges > 0 {
		out.vals["sim.ns_per_edge"] = runS * 1e9 / float64(rep.TotalEdges)
	}
	if an, ok := w.inst.(interface{ Network() *core.Network }); ok {
		if p := an.Network().Replay(); p != nil {
			st := p.ProgStats()
			out.vals["replay.replayed_instants"] = float64(st.ReplayedInstants)
			out.vals["replay.engagements"] = float64(st.Engagements)
			out.vals["replay.deopts"] = float64(st.Deopts)
			if inert, _ := p.Inert(); inert {
				out.vals["replay.inert"] = 1
			} else {
				out.vals["replay.inert"] = 0
			}
		}
	}
	tableSize := rep.TableSize
	out.attribute = func() error {
		s, err := w.planOnce(tableSize)
		out.vals["core.plan_s"] = s
		return err
	}
	return out, nil
}

// planOnce times one routing and slot-allocation pass at the table size
// Build chose, so backend.build_s − core.plan_s approximates the
// table-size search plus instantiation.
func (w *simWorkload) planOnce(tableSize int) (float64, error) {
	m, uc, err := w.gen()
	if err != nil {
		return 0, err
	}
	p := w.params
	cfg := core.Config{
		Layout: p.Layout, WordBytes: p.WordBytes, TableSize: tableSize, FreqMHz: p.FreqMHz,
		Mode: p.Mode, Allocator: p.Allocator, Transactional: p.Transactional, FastReplay: p.FastReplay,
	}
	core.PrepareTopology(m, cfg)
	start := time.Now()
	plan, err := core.PlanAllocation(m, uc, cfg)
	s := time.Since(start).Seconds()
	if err == nil && len(plan.Failed) > 0 {
		err = fmt.Errorf("core.PlanAllocation left %d connections unplaced at table size %d, where Build placed all", len(plan.Failed), tableSize)
	}
	return s, err
}

// reportProblems lists the aelite guarantees a report breaks: a missed
// requirement, or a measured worst-case latency above the analytical
// bound.
func reportProblems(rep *core.Report) []string {
	missed, over := 0, 0
	for _, c := range rep.Conns {
		if !c.MetThroughput || !c.MetLatency {
			missed++
		}
		if c.LatMaxNs > c.BoundNs {
			over++
		}
	}
	var out []string
	if missed > 0 || over > 0 {
		out = append(out, fmt.Sprintf("%d connections missed a requirement, %d exceeded their latency bound", missed, over))
	}
	return out
}
