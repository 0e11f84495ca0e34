package cli

import (
	"errors"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/topology"
)

// A Workload is the use-case half of the simulator commands' flags
// (aelite-sim and aelite-alloc): the mesh plus exactly one of a use-case
// JSON (-spec), N random connections (-random) or a generated scenario
// (-scenario with -conns).
type Workload struct {
	SpecPath string
	Random   int
	Scenario string
	Conns    int
	Seed     int64

	Cols, Rows, NIs int
	FreqMHz         float64
	// TableSize overrides the scenario's slot-table size (0 keeps the
	// generator default).
	TableSize int
}

// Validate rejects a malformed workload before anything is built.
func (w *Workload) Validate() error {
	if w.Cols < 1 || w.Rows < 1 || w.NIs < 1 {
		return fmt.Errorf("mesh dimensions must be at least 1 (-cols %d -rows %d -nis %d)", w.Cols, w.Rows, w.NIs)
	}
	if w.FreqMHz <= 0 {
		return fmt.Errorf("-freq %g must be positive", w.FreqMHz)
	}
	if w.Random < 0 {
		return fmt.Errorf("-random %d must be positive", w.Random)
	}
	if w.Scenario != "" {
		if _, err := scenario.ParseFamily(w.Scenario); err != nil {
			return fmt.Errorf("-scenario: %w", err)
		}
		if w.SpecPath != "" || w.Random > 0 {
			return errors.New("-scenario excludes -spec and -random")
		}
		if w.Conns < 1 {
			return fmt.Errorf("-scenario needs -conns >= 1 (got %d)", w.Conns)
		}
	} else if w.Conns != 0 {
		return errors.New("-conns applies only with -scenario")
	}
	if w.SpecPath == "" && w.Random == 0 && w.Scenario == "" {
		return errors.New("need -spec, -random or -scenario")
	}
	return nil
}

// Build assembles the mesh and the use case, mapping unmapped IPs by
// traffic. A use case is mutated during mapping and build-time budget
// negotiation, so every build needs its own: sweep workers call Build
// once each.
func (w *Workload) Build() (*topology.Mesh, *spec.UseCase, error) {
	m := topology.NewMesh(w.Cols, w.Rows, w.NIs)
	var uc *spec.UseCase
	switch {
	case w.Scenario != "":
		fam, err := scenario.ParseFamily(w.Scenario)
		if err != nil {
			return nil, nil, err
		}
		cfg := scenario.Default(fam, w.Cols, w.Rows, w.Conns, w.Seed)
		cfg.NIsPerRouter = w.NIs
		cfg.FreqMHz = w.FreqMHz
		if w.TableSize != 0 {
			cfg.TableSize = w.TableSize
		}
		s, err := scenario.Generate(cfg)
		if err != nil {
			return nil, nil, err
		}
		uc = s.UseCase
	case w.SpecPath != "":
		var err error
		if uc, err = spec.Load(w.SpecPath); err != nil {
			return nil, nil, err
		}
	default:
		uc = spec.Random(spec.RandomConfig{
			Name: "random", Seed: w.Seed,
			IPs: w.Cols * w.Rows * w.NIs, Apps: 4, Conns: w.Random,
			MinRateMBps: 10, MaxRateMBps: 300, HeavyFraction: 0.1, HeavyMinRateMBps: 40,
			MinLatencyNs: 150, MaxLatencyNs: 900,
		})
	}
	for _, ip := range uc.IPs {
		if ip.NI == topology.Invalid {
			spec.MapIPsByTraffic(uc, m)
			break
		}
	}
	return m, uc, nil
}
