package router

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/sim"
	"repro/internal/trace"
)

// hpuState tracks one input's position within a packet.
type hpuState struct {
	inPacket bool
	outPort  int
}

// stage2Reg is the register between the HPU and the switch.
type stage2Reg struct {
	p       phit.Phit
	outPort int

	// flitLeft counts the words remaining in the flit currently crossing
	// this input's switch stage, so tracing can emit one RouterForward
	// per flit instead of one per word. A flit's first word is never
	// idle, so the counter self-aligns: zero at a valid word marks a flit
	// start. It lives beside the register the switch reads anyway.
	flitLeft int8
}

// Core is the cycle-exact aelite router state machine. Step advances it by
// one clock cycle. Core carries no notion of time or wiring; callers own
// both.
//
// The pipeline registers hold a phit per port, but only the valid ones do
// work: an idle port clears one Valid bit per stage and copies nothing.
// An invalid register's other fields are stale and never read — a phit
// whose valid bit is low carries no information in hardware either.
type Core struct {
	name   string
	layout phit.HeaderLayout
	arity  int

	reg1 []phit.Phit // input registers (stage 1)
	reg2 []stage2Reg // HPU output registers (stage 2)
	out  []phit.Phit // switch outputs of the current cycle (stage 3)
	hpu  []hpuState

	// forwarded counts valid phits switched, a cheap progress metric.
	// mForwarded/dForwarded are its hyperperiod-boundary snapshot and
	// per-epoch delta (see replay.go).
	forwarded              int64
	mForwarded, dForwarded int64
	rmValid                bool

	// rep receives envelope violations (TDM contention, protocol errors);
	// nil preserves the fail-fast panics. now is the adapter-maintained
	// simulation time stamped onto violations — Core itself is timeless.
	rep fault.Reporter
	now clock.Time

	// tr, when non-nil, receives a RouterForward event per switched flit
	// (stamped with the flit's first word), using the adapter-maintained now.
	tr *trace.Emitter
}

// NewCore returns a router core with the given arity (number of input and
// output ports) and header layout.
func NewCore(name string, arity int, layout phit.HeaderLayout) *Core {
	if arity < 2 {
		panic(fmt.Sprintf("router %s: arity %d below minimum 2", name, arity))
	}
	if err := layout.Validate(); err != nil {
		panic(fmt.Sprintf("router %s: %v", name, err))
	}
	return &Core{
		name:   name,
		layout: layout,
		arity:  arity,
		reg1:   make([]phit.Phit, arity),
		reg2:   make([]stage2Reg, arity),
		out:    make([]phit.Phit, arity),
		hpu:    make([]hpuState, arity),
	}
}

// Arity returns the port count.
func (c *Core) Arity() int { return c.arity }

// Name returns the router's name.
func (c *Core) Name() string { return c.name }

// Forwarded returns the number of valid phits switched so far.
func (c *Core) Forwarded() int64 { return c.forwarded }

// SetReporter routes the router's envelope checks (TDM contention,
// protocol errors, routing errors) to r; nil restores fail-fast panics.
func (c *Core) SetReporter(r fault.Reporter) { c.rep = r }

// SetTracer installs the router's lifecycle-event emitter; nil disables
// tracing.
func (c *Core) SetTracer(e *trace.Emitter) { c.tr = e }

// SetNow stamps subsequent violations with the given simulation time; the
// engine adapter and the asynchronous wrapper call it, keeping Core itself
// free of any notion of time.
func (c *Core) SetNow(t clock.Time) { c.now = t }

// Step advances the router by one cycle: in[i] is the phit present at
// input port i this cycle; the returned slice (valid until the next call)
// holds the phit driven on each output port. The output corresponds to
// inputs presented three cycles earlier.
func (c *Core) Step(in []phit.Phit, out []phit.Phit) []phit.Phit {
	if len(in) != c.arity {
		panic(fmt.Sprintf("router %s: %d inputs for arity %d", c.name, len(in), c.arity))
	}
	if cap(out) < c.arity {
		out = make([]phit.Phit, c.arity)
	}
	out = out[:c.arity]
	c.advance()
	for i := range in {
		c.latch(i, &in[i])
	}
	for o := range out {
		if c.out[o].Valid {
			out[o] = c.out[o]
		} else {
			out[o] = phit.IdlePhit
		}
	}
	return out
}

// advance runs stages 3 and 2 of one cycle: the switch moves the HPU
// registers to c.out, then the HPUs move the input registers to the HPU
// registers. The caller completes the cycle by latching every input port
// (stage 1).
func (c *Core) advance() {
	for o := range c.out {
		c.out[o].Valid = false
	}

	// Stage 3: switch reg2 to the outputs. TDM contention-freedom means
	// at most one input targets each output; hitting a collision is a
	// broken allocation, not an arbitration event. In collecting mode the
	// first-switched phit wins and the collider is dropped — hardware
	// would garble both, but keeping one preserves more observable
	// behaviour downstream.
	for i := range c.reg2 {
		r := &c.reg2[i]
		if !r.p.Valid {
			if r.flitLeft > 0 {
				r.flitLeft-- // idle padding inside a flit
			}
			continue
		}
		flitStart := r.flitLeft == 0
		if flitStart {
			r.flitLeft = phit.FlitWords - 1
		} else {
			r.flitLeft--
		}
		if r.outPort < 0 || r.outPort >= c.arity {
			fault.Report(c.rep, fault.Violation{
				Kind: fault.RouteError, Component: "router " + c.name, Time: c.now, Slot: fault.NoSlot,
				Detail: fmt.Sprintf("input %d routed to non-existent port %d (conn %d), phit dropped",
					i, r.outPort, r.p.Meta.Conn),
			})
			continue
		}
		if o := &c.out[r.outPort]; o.Valid {
			fault.Report(c.rep, fault.Violation{
				Kind: fault.SlotContention, Component: "router " + c.name, Time: c.now, Slot: fault.NoSlot,
				Detail: fmt.Sprintf("TDM contention on output %d between connections %d and %d — slot allocation violated",
					r.outPort, o.Meta.Conn, r.p.Meta.Conn),
			})
			continue
		}
		c.out[r.outPort] = r.p
		c.forwarded++
		if c.tr != nil && flitStart {
			c.tr.Emit(trace.Event{Time: c.now, Kind: trace.RouterForward, Conn: r.p.Meta.Conn,
				Seq: r.p.Meta.Seq, Arg: int64(r.outPort), Slot: trace.NoSlot})
		}
	}

	// Stage 2: HPU. A valid phit outside a packet is a header: consume
	// one hop of the path and latch the output port until EoP. A
	// non-header phit outside a packet (a dropped or corrupted header
	// upstream) is discarded until the next packet start.
	for i := range c.reg1 {
		p := &c.reg1[i]
		r := &c.reg2[i]
		if !p.Valid {
			r.p.Valid = false
			continue
		}
		st := &c.hpu[i]
		if !st.inPacket {
			if p.Kind != phit.Header && p.Kind != phit.CreditOnly {
				fault.Report(c.rep, fault.Violation{
					Kind: fault.ProtocolError, Component: "router " + c.name, Time: c.now, Slot: fault.NoSlot,
					Detail: fmt.Sprintf("input %d expected header, got %v (conn %d), phit dropped",
						i, p.Kind, p.Meta.Conn),
				})
				r.p.Valid = false
				continue
			}
			port, shifted := c.layout.NextPort(p.Data)
			r.p = *p
			r.p.Data = shifted
			st.outPort = port
			st.inPacket = true
		} else {
			r.p = *p
		}
		if p.EoP {
			st.inPacket = false
		}
		r.outPort = st.outPort
	}
}

// latch is stage 1 for input port i: the input register takes p when it
// is valid; an idle input only clears the register's valid bit.
func (c *Core) latch(i int, p *phit.Phit) {
	if p.Valid {
		c.reg1[i] = *p
	} else {
		c.reg1[i].Valid = false
	}
}

// Component adapts a Core to the simulation engine: each cycle of the
// router's clock it reads its input wires in place and drives its output
// wires.
type Component struct {
	core *Core
	clk  *clock.Clock

	in  []*sim.Wire[phit.Phit]
	out []*sim.Wire[phit.Phit]
}

// NewComponent wraps a new Core for the engine. Inputs and outputs are
// connected afterwards with ConnectIn/ConnectOut; unconnected ports read
// idle and discard idle-only output (driving a valid phit to an
// unconnected output panics — it means a route leaves the network).
func NewComponent(name string, arity int, layout phit.HeaderLayout, clk *clock.Clock) *Component {
	return &Component{
		core: NewCore(name, arity, layout),
		clk:  clk,
		in:   make([]*sim.Wire[phit.Phit], arity),
		out:  make([]*sim.Wire[phit.Phit], arity),
	}
}

// Core exposes the underlying state machine (used by tests and tools).
func (r *Component) Core() *Core { return r.core }

// ConnectIn attaches the wire feeding input port i.
func (r *Component) ConnectIn(i int, w *sim.Wire[phit.Phit]) { r.in[i] = w }

// ConnectOut attaches the wire output port i drives.
func (r *Component) ConnectOut(i int, w *sim.Wire[phit.Phit]) { r.out[i] = w }

// Name implements sim.Component.
func (r *Component) Name() string { return r.core.name }

// Clock implements sim.Component.
func (r *Component) Clock() *clock.Clock { return r.clk }

// SetReporter routes the wrapped core's envelope checks to r.
func (r *Component) SetReporter(rep fault.Reporter) { r.core.SetReporter(rep) }

// SetTracer installs the wrapped core's lifecycle-event emitter.
func (r *Component) SetTracer(e *trace.Emitter) { r.core.SetTracer(e) }

// Update implements sim.Component. An output wire is driven only when
// the drive can change what it shows: when the switch puts a valid phit
// on it, when the wire still shows a valid phit that must now go idle, or
// when a fault intercept observes every commit of the wire. Otherwise the
// wire already reads idle and keeps doing so undriven.
func (r *Component) Update(now clock.Time) {
	c := r.core
	c.now = now
	c.advance()
	for i, w := range r.in {
		if w != nil && w.Read().Valid {
			c.reg1[i] = w.Read()
		} else {
			c.reg1[i].Valid = false
		}
	}
	for o, w := range r.out {
		p := &c.out[o]
		switch {
		case w == nil:
			if p.Valid {
				fault.Report(c.rep, fault.Violation{
					Kind: fault.RouteError, Component: "router " + c.name, Time: now, Slot: fault.NoSlot,
					Detail: fmt.Sprintf("valid phit for unconnected output %d (conn %d), phit dropped",
						o, p.Meta.Conn),
				})
			}
		case p.Valid:
			w.Drive(*p)
		case w.Read().Valid || w.HasIntercept():
			w.Drive(phit.IdlePhit)
		}
	}
}
