package router

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/sim"
)

// TestRouterViolations drives every converted envelope check of the router
// core — the pipelined Step datapath and the wrapper-mode StepFlitDirect —
// in strict mode (panic) and collecting mode (exactly one violation of the
// expected kind, datapath keeps going).
func TestRouterViolations(t *testing.T) {
	eopHeader := func(t *testing.T, path []int, conn phit.ConnID) phit.Phit {
		h := header(t, path, 0)
		h.EoP = true
		h.Meta.Conn = conn
		return h
	}
	cases := []struct {
		name string
		kind fault.Kind
		run  func(t *testing.T, c *Core)
	}{
		{
			name: "step/expected-header",
			kind: fault.ProtocolError,
			run: func(t *testing.T, c *Core) {
				var out []phit.Phit
				out = stepOne(c, payload(1, false), out)
				for i := 0; i < 2; i++ {
					out = stepOne(c, phit.IdlePhit, out)
				}
			},
		},
		{
			name: "step/route-off-mesh",
			kind: fault.RouteError,
			run: func(t *testing.T, c *Core) {
				var out []phit.Phit
				out = stepOne(c, eopHeader(t, []int{5}, 1), out) // port 5 on an arity-2 router
				for i := 0; i < 2; i++ {
					out = stepOne(c, phit.IdlePhit, out)
				}
			},
		},
		{
			name: "step/contention",
			kind: fault.SlotContention,
			run: func(t *testing.T, c *Core) {
				in := []phit.Phit{eopHeader(t, []int{1}, 1), eopHeader(t, []int{1}, 2)}
				var out []phit.Phit
				out = c.Step(in, out)
				for i := 0; i < 2; i++ {
					out = c.Step(make([]phit.Phit, 2), out)
				}
			},
		},
		{
			name: "flit/expected-header",
			kind: fault.ProtocolError,
			run: func(t *testing.T, c *Core) {
				var in [2]phit.Flit
				in[0][0] = payload(1, false)
				c.StepFlitDirect(in[:], nil)
			},
		},
		{
			name: "flit/route-off-mesh",
			kind: fault.RouteError,
			run: func(t *testing.T, c *Core) {
				var in [2]phit.Flit
				in[0][0] = eopHeader(t, []int{5}, 1)
				c.StepFlitDirect(in[:], nil)
			},
		},
		{
			name: "flit/contention",
			kind: fault.SlotContention,
			run: func(t *testing.T, c *Core) {
				var in [2]phit.Flit
				in[0][0] = eopHeader(t, []int{1}, 1)
				in[1][0] = eopHeader(t, []int{1}, 2)
				c.StepFlitDirect(in[:], nil)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/strict", func(t *testing.T) {
			c := NewCore("r", 2, layout)
			defer func() {
				if recover() == nil {
					t.Error("no panic in strict mode")
				}
			}()
			tc.run(t, c)
		})
		t.Run(tc.name+"/collect", func(t *testing.T) {
			c := NewCore("r", 2, layout)
			col := fault.NewCollector()
			c.SetReporter(col)
			tc.run(t, c)
			if col.Total() != 1 {
				t.Fatalf("collected %d violations, want exactly 1: %v", col.Total(), col.Violations())
			}
			if got := col.Violations()[0].Kind; got != tc.kind {
				t.Errorf("violation kind %v, want %v", got, tc.kind)
			}
		})
	}
}

// TestCoreContentionKeepsFirst: in collecting mode the first-switched phit
// survives a contention; only the collider is dropped.
func TestCoreContentionKeepsFirst(t *testing.T) {
	c := NewCore("r", 2, layout)
	col := fault.NewCollector()
	c.SetReporter(col)
	var in [2]phit.Flit
	h0 := header(t, []int{1}, 3)
	h0.EoP = true
	h0.Meta.Conn = 1
	h1 := h0
	h1.Meta.Conn = 2
	in[0][0] = h0
	in[1][0] = h1
	out := c.StepFlitDirect(in[:], nil)
	if !out[1][0].Valid || out[1][0].Meta.Conn != 1 {
		t.Errorf("first phit did not survive the contention: %v", out[1][0])
	}
	if c.Forwarded() != 1 {
		t.Errorf("Forwarded = %d, want 1", c.Forwarded())
	}
}

// TestComponentUnconnectedOutputCollects: the engine-adapter variant of the
// route-off-mesh check records a violation and keeps the simulation
// running (the strict variant lives in router_test.go).
func TestComponentUnconnectedOutputCollects(t *testing.T) {
	eng := sim.New()
	clk := clock.NewMHz("clk", 500, 0)
	in := sim.NewWire[phit.Phit]("in")
	eng.AddWire(in)
	r := NewComponent("r", 2, layout, clk)
	r.ConnectIn(0, in)
	col := fault.NewCollector()
	r.SetReporter(col)
	eng.Add(r)
	eng.Add(&scriptedSource{name: "src", clk: clk, out: in, seq: []phit.Phit{
		header(t, []int{1}, 0),
		{Valid: true, Kind: phit.Payload, EoP: true},
	}})
	eng.Run(10 * clk.Period)
	if col.Total() == 0 {
		t.Fatal("no violation for a flit routed off the edge of the network")
	}
	for _, v := range col.Violations() {
		if v.Kind != fault.RouteError {
			t.Errorf("unexpected violation kind %v", v.Kind)
		}
	}
}

// TestDuplicateOnOutputVisibleOneCycle: a fault duplicate on a router
// output wire replays the last phit of a flit into the following cycle,
// and from the cycle after that the wire must read idle again although
// the router has nothing more to send. The router only skips a drive that
// cannot change the wire, so it must re-drive idle onto a wire that still
// shows a valid phit and drive every commit of an intercepted wire.
func TestDuplicateOnOutputVisibleOneCycle(t *testing.T) {
	eng := sim.New()
	clk := clock.NewMHz("clk", 500, 0)
	in := sim.NewWire[phit.Phit]("in")
	out := sim.NewWire[phit.Phit]("out")
	eng.AddWireClocked(in, clk)
	eng.AddWireClocked(out, clk)
	r := NewComponent("r", 2, layout, clk)
	r.ConnectIn(0, in)
	r.ConnectOut(1, out)
	eng.Add(r)
	credit := header(t, []int{1}, 0)
	credit.Kind, credit.EoP = phit.CreditOnly, true
	eng.Add(&scriptedSource{name: "src", clk: clk, out: in, seq: []phit.Phit{credit}})
	camp := fault.NewCampaign(&fault.Plan{Events: []fault.Event{
		{At: 1, Op: fault.OpDuplicate, Target: "out", Param: 1},
	}}, nil)
	if err := camp.Arm(eng, fault.Targets{Links: []fault.LinkTarget{{Name: "out", Wire: out}}}); err != nil {
		t.Fatal(err)
	}

	var valid []int // cycles whose committed output is valid
	var seen []phit.Phit
	for cyc := 1; cyc <= 12; cyc++ {
		eng.Run(eng.Now() + clk.Period)
		if p := out.Read(); p.Valid {
			valid = append(valid, cyc)
			seen = append(seen, p)
		}
	}
	// Driven at the source's first edge, the word leaves the 3-stage
	// pipeline at cycle 4; the duplicate repeats it at cycle 5 only.
	if len(valid) != 2 || valid[0] != 4 || valid[1] != 5 {
		t.Fatalf("output valid at cycles %v, want [4 5] (original, then one duplicate)", valid)
	}
	if seen[0] != seen[1] {
		t.Errorf("duplicate %v differs from original %v", seen[1], seen[0])
	}
}
