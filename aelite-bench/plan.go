package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/phit"
	"repro/internal/scenario"
)

// planWorkload is plan32_transpose: allocation-only planning of the
// transpose family on a 32x32 mesh with 2400 connections at table size
// 128, paths uncapped, greedy first and then rip-up, through
// core.PlanAllocation. The scenario is the scale study's (generated at
// its seed, the default seed); another seed loosens its latency budgets
// (see loosenBudgets), because rip-up's work swings by about ±8% between
// freshly drawn scenarios, more than a regression bound can absorb. It
// checks invariants only, so an allocator that places more shows up in
// placed_frac rather than as a digest mismatch.
type planWorkload struct {
	seed int64
	scfg scenario.Config
	// Made by setup.
	s    *scenario.Scenario
	genS float64
}

func newPlan32(opts options) *planWorkload {
	scfg := scenario.Default(scenario.Transpose, 32, 32, 2400, defaultSeed)
	if opts.smoke {
		scfg = scenario.Default(scenario.Transpose, 16, 16, 600, defaultSeed)
	}
	scfg.WordBytes = 8
	return &planWorkload{seed: opts.seed, scfg: scfg}
}

func (w *planWorkload) generate() (*scenario.Scenario, error) {
	s, err := scenario.Generate(w.scfg)
	if err != nil {
		return nil, err
	}
	loosenBudgets(s.UseCase, w.seed)
	return s, nil
}

func (w *planWorkload) shared() bool { return false }
func (w *planWorkload) close() error { return nil }

func (w *planWorkload) inputs() string {
	s, err := w.generate()
	if err != nil {
		return "error: " + err.Error()
	}
	return sha(s.Fingerprint())
}

func (w *planWorkload) setup(o *op) error {
	d, err := o.span("spec.gen", func() error {
		var err error
		w.s, err = w.generate()
		return err
	})
	w.genS = d.Seconds()
	return err
}

func (w *planWorkload) plan(o *op, allocator string) (*core.Plan, float64, error) {
	cfg := core.Config{
		Layout: phit.WideLayout, WordBytes: w.scfg.WordBytes, FreqMHz: w.scfg.FreqMHz,
		TableSize: w.scfg.TableSize, Allocator: allocator, UncappedPaths: true,
	}
	var p *core.Plan
	d, err := o.span("slots."+allocator, func() error {
		m := w.s.Mesh()
		core.PrepareTopology(m, cfg)
		var err error
		p, err = core.PlanAllocation(m, w.s.UseCase, cfg)
		return err
	})
	return p, d.Seconds(), err
}

func (w *planWorkload) op(o *op) (*outcome, error) {
	greedy, greedyS, err := w.plan(o, "greedy")
	if err != nil {
		return nil, err
	}
	ripup, ripupS, err := w.plan(o, "ripup")
	if err != nil {
		return nil, err
	}
	conns := len(w.s.UseCase.Connections)
	out := &outcome{attempted: 2}
	for _, p := range []*core.Plan{greedy, ripup} {
		if n := len(p.Placed) + len(p.Failed); n != conns {
			out.problems = append(out.problems, fmt.Sprintf("%s planned %d of %d connections", p.Allocator, n, conns))
		}
	}
	if len(ripup.Placed) < len(greedy.Placed) {
		out.problems = append(out.problems, fmt.Sprintf("rip-up placed %d < greedy %d", len(ripup.Placed), len(greedy.Placed)))
	}
	b, err := json.Marshal([]any{greedy.Placed, ripup.Placed, ripup.RipUps})
	if err != nil {
		return nil, err
	}
	out.digest = sha(b)
	out.vals = map[string]float64{
		"spec.gen_s":           w.genS,
		"slots.greedy_s":       greedyS,
		"slots.ripup_s":        ripupS,
		"slots.greedy_placed":  float64(len(greedy.Placed)),
		"slots.ripup_placed":   float64(len(ripup.Placed)),
		"slots.ripups_adopted": float64(ripup.RipUps),
		"placed_frac":          float64(len(greedy.Placed)+len(ripup.Placed)) / float64(2*conns),
	}
	if n := len(greedy.Failed); n > 0 {
		out.vals["slots.ripup_useful_frac"] = float64(ripup.RipUps) / float64(n)
	}
	return out, nil
}

func (w *planWorkload) finish(*bench) error { return nil }
