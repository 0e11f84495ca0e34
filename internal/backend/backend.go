// Package backend is the seam between network implementations and
// everything that drives them: a Backend builds a runnable network from
// the same spec+mapping inputs, attaches trace emitters to the shared
// event bus, exposes per-backend analytical bounds to the conformance
// auditor where they exist, and reports in the shared core.Report shape.
// The CLIs, the N-backend comparison study and the serve control plane
// all select networks through the registry here, so a new fabric model
// plugs into every experiment by registering one adapter.
package backend

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/area"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/routerless"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Params carries the construction knobs shared across backends. A zero
// Layout and WordBytes take the header layout the mesh needs
// (phit.LayoutForMesh: the paper's 32-bit words up to 7-hop routes, the
// 64-bit wide layout up to 16) and its word width; the other zero fields
// take the paper-wide defaults (500 MHz, synchronous). The backends'
// builders apply both, so a zero Params builds the same network the
// direct constructors build with a zero config.
type Params struct {
	Layout    phit.HeaderLayout
	WordBytes int
	TableSize int
	FreqMHz   float64
	Mode      core.Mode
	PhaseSeed int64
	PPM       float64
	Allocator string

	TrafficBurstFactor float64
	Transactional      bool
	FastReplay         bool

	// The aelite-only knobs, each the core.Config field of the same
	// name: TDM ownership probes, the end-to-end reliability shell, the
	// mesochronous skew override and the fault reporter that turns
	// envelope panics into collected violations. The single-clock
	// backends reject them, as they reject a non-synchronous Mode.
	Probes         bool
	Reliable       bool
	SkewOverridePS int64
	FaultReporter  fault.Reporter
}

// singleClock rejects the Params a single-clock backend without TDM
// probes, reliability shell or fault hooks cannot honour.
func (p Params) singleClock(backend, what string) error {
	if p.Mode != core.Synchronous {
		return fmt.Errorf("backend %s: %s (got mode %s)", backend, what, p.Mode)
	}
	if p.Probes || p.Reliable || p.SkewOverridePS != 0 || p.FaultReporter != nil {
		return fmt.Errorf("backend %s: probes, the reliability shell, skew overrides and fault reporting need the aelite backend", backend)
	}
	return nil
}

// An Instance is one built, runnable network of any backend.
type Instance interface {
	// Backend names the backend that built this instance.
	Backend() string
	// AttachTracer installs the shared event bus; nil detaches.
	AttachTracer(bus *trace.Bus)
	// Audit subscribes the conformance auditor to the instance's
	// analytical contracts and returns it, or nil when the backend has
	// none to check (best-effort service has no bounds — that is the
	// point of the comparison).
	Audit(bus *trace.Bus, rep fault.Reporter, opts audit.Options) *audit.Auditor
	// Run simulates warm-up, clears statistics, measures, and reports.
	Run(warmupNs, measureNs float64) *core.Report
	// AreaUm2 estimates the fabric's silicon cost from the paper's area
	// model, for the comparison tables.
	AreaUm2() float64
}

// A Backend builds network instances from spec+mapping inputs.
type Backend interface {
	// Name is the registry key (also the CLI -backend value).
	Name() string
	// HasBounds reports whether built instances carry analytical
	// latency bounds (and therefore support auditing).
	HasBounds() bool
	// Build assembles a runnable network for the use case on the mesh.
	// The use case must be validated and its IPs mapped.
	Build(m *topology.Mesh, uc *spec.UseCase, p Params) (Instance, error)
}

var (
	regMu    sync.Mutex
	registry = make(map[string]Backend)
)

// Register adds a backend to the registry. Duplicate names panic: two
// backends answering to one -backend value would make runs ambiguous.
func Register(b Backend) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[b.Name()]; dup {
		panic(fmt.Sprintf("backend: duplicate registration of %q", b.Name()))
	}
	registry[b.Name()] = b
}

// ByName resolves a registered backend. The error lists the valid names
// so a CLI can surface it as a one-line usage diagnostic.
func ByName(name string) (Backend, error) {
	regMu.Lock()
	defer regMu.Unlock()
	if b, ok := registry[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("unknown backend %q (valid: %s)", name, namesLocked())
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func namesLocked() string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " | "
		}
		out += n
	}
	return out
}

func init() {
	Register(aeliteBackend{})
	Register(aetherealBackend{})
	Register(routerlessBackend{})
}

// routerArity is the mesh router arity: four mesh ports plus one per NI.
func routerArity(m *topology.Mesh) int { return 4 + m.NIsPerRouter }

// ---- aelite ----

// aeliteBackend wraps the TDM core: PrepareTopology followed by
// core.Build, exactly the sequence the CLI runs, so a seam-built aelite
// network is byte-identical to a directly built one.
type aeliteBackend struct{}

func (aeliteBackend) Name() string    { return "aelite" }
func (aeliteBackend) HasBounds() bool { return true }

func (aeliteBackend) Build(m *topology.Mesh, uc *spec.UseCase, p Params) (Instance, error) {
	cfg := core.Config{
		Layout:             p.Layout,
		WordBytes:          p.WordBytes,
		TableSize:          p.TableSize,
		FreqMHz:            p.FreqMHz,
		Mode:               p.Mode,
		PhaseSeed:          p.PhaseSeed,
		PPM:                p.PPM,
		Allocator:          p.Allocator,
		TrafficBurstFactor: p.TrafficBurstFactor,
		Transactional:      p.Transactional,
		FastReplay:         p.FastReplay,
		Probes:             p.Probes,
		Reliable:           p.Reliable,
		SkewOverridePS:     p.SkewOverridePS,
		FaultReporter:      p.FaultReporter,
	}
	core.PrepareTopology(m, cfg)
	n, err := core.Build(m, uc, cfg)
	if err != nil {
		return nil, err
	}
	return &aeliteInstance{n: n}, nil
}

type aeliteInstance struct{ n *core.Network }

func (i *aeliteInstance) Backend() string               { return "aelite" }
func (i *aeliteInstance) Network() *core.Network        { return i.n }
func (i *aeliteInstance) AttachTracer(bus *trace.Bus)   { i.n.AttachTracer(bus) }
func (i *aeliteInstance) Run(w, m float64) *core.Report { return i.n.Run(w, m) }
func (i *aeliteInstance) Audit(bus *trace.Bus, rep fault.Reporter, opts audit.Options) *audit.Auditor {
	return audit.Attach(i.n, bus, rep, opts)
}

func (i *aeliteInstance) AreaUm2() float64 {
	arity := routerArity(i.n.Mesh)
	bits := i.n.Cfg.WordBytes * 8
	per := area.RouterArea(arity, bits, i.n.Cfg.FreqMHz)
	if i.n.Cfg.Mode == core.Mesochronous {
		per = area.MesochronousRouterArea(arity, bits, i.n.Cfg.FreqMHz, true)
	}
	return float64(len(i.n.Mesh.Routers())) * per
}

// ---- aethereal (GS+BE baseline) ----

// aetherealBackend wraps the Æthereal best-effort wormhole network. It
// is globally synchronous and carries no analytical bounds.
type aetherealBackend struct{}

func (aetherealBackend) Name() string    { return "aethereal" }
func (aetherealBackend) HasBounds() bool { return false }

func (aetherealBackend) Build(m *topology.Mesh, uc *spec.UseCase, p Params) (Instance, error) {
	if err := p.singleClock("aethereal", "the Æthereal baseline is globally synchronous"); err != nil {
		return nil, err
	}
	n, err := core.BuildBE(m, uc, core.BEConfig{
		Layout:             p.Layout,
		WordBytes:          p.WordBytes,
		FreqMHz:            p.FreqMHz,
		TrafficBurstFactor: p.TrafficBurstFactor,
		Transactional:      p.Transactional,
	})
	if err != nil {
		return nil, err
	}
	return &aetherealInstance{n: n}, nil
}

type aetherealInstance struct{ n *core.BENetwork }

func (i *aetherealInstance) Backend() string               { return "aethereal" }
func (i *aetherealInstance) Network() *core.BENetwork      { return i.n }
func (i *aetherealInstance) AttachTracer(bus *trace.Bus)   { i.n.AttachTracer(bus) }
func (i *aetherealInstance) Run(w, m float64) *core.Report { return i.n.Run(w, m) }
func (i *aetherealInstance) Audit(*trace.Bus, fault.Reporter, audit.Options) *audit.Auditor {
	return nil // best effort: no contracts to audit
}

func (i *aetherealInstance) AreaUm2() float64 {
	arity := routerArity(i.n.Mesh)
	bits := i.n.Cfg.WordBytes * 8
	return float64(len(i.n.Mesh.Routers())) * area.GSBERouterArea(arity, bits)
}

// ---- routerless ring overlay ----

// routerlessBackend wraps the Indrusiak & Burns-style ring overlay.
type routerlessBackend struct{}

func (routerlessBackend) Name() string    { return "routerless" }
func (routerlessBackend) HasBounds() bool { return true }

func (routerlessBackend) Build(m *topology.Mesh, uc *spec.UseCase, p Params) (Instance, error) {
	if err := p.singleClock("routerless", "the ring overlay is single-clock"); err != nil {
		return nil, err
	}
	n, err := routerless.Build(m, uc, routerless.Config{
		WordBytes:          p.WordBytes,
		FreqMHz:            p.FreqMHz,
		TrafficBurstFactor: p.TrafficBurstFactor,
		Transactional:      p.Transactional,
	})
	if err != nil {
		return nil, err
	}
	return &routerlessInstance{n: n}, nil
}

type routerlessInstance struct{ n *routerless.Network }

func (i *routerlessInstance) Backend() string               { return "routerless" }
func (i *routerlessInstance) Network() *routerless.Network  { return i.n }
func (i *routerlessInstance) AttachTracer(bus *trace.Bus)   { i.n.AttachTracer(bus) }
func (i *routerlessInstance) Run(w, m float64) *core.Report { return i.n.Run(w, m) }
func (i *routerlessInstance) AreaUm2() float64              { return i.n.AreaUm2() }
func (i *routerlessInstance) Audit(bus *trace.Bus, rep fault.Reporter, opts audit.Options) *audit.Auditor {
	return i.n.Audit(bus, rep, opts)
}
