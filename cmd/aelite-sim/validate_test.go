package main

import (
	"strings"
	"testing"
)

// TestValidate: every misuse is rejected by validate — before run creates
// any output file — with a diagnostic naming the offending flag; in
// particular each aelite-only flag is rejected with every other backend
// instead of being silently ignored.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		set  func(*options)
		want string // substring of the error; "" means valid
	}{
		{"aelite defaults", func(o *options) {}, ""},
		{"aelite probes fast ripup", func(o *options) { o.probes, o.fast, o.alloc = true, true, "ripup" }, ""},
		{"routerless plain", func(o *options) { o.backend = "routerless" }, ""},
		{"routerless faults with trace", func(o *options) {
			o.backend, o.faults, o.traceOut = "routerless", "random:2", "t.json"
		}, "-faults needs the aelite backend"},
		{"routerless probes", func(o *options) { o.backend, o.probes = "routerless", true }, "-probes needs the aelite backend"},
		{"routerless fast", func(o *options) { o.backend, o.fast = "routerless", true }, "-fast needs the aelite backend"},
		{"aethereal ripup", func(o *options) { o.backend, o.alloc = "aethereal", "ripup" }, "-alloc ripup needs the aelite backend"},
		{"be reliable", func(o *options) { o.backend, o.reliable = "be", true }, "-reliable/-bitflip-rate/-drop-rate need the aelite backend"},
		{"be reconfig", func(o *options) { o.backend, o.reconfig = "be", "close@2000:3" }, "-reconfig needs the aelite backend"},
		{"routerless mesochronous", func(o *options) { o.backend, o.mode = "routerless", "mesochronous" }, "is single-clock"},
		{"unknown mode", func(o *options) { o.mode = "plesiochronous" }, `unknown mode "plesiochronous" (synchronous | mesochronous | asynchronous)`},
		{"skew when synchronous", func(o *options) { o.skewPS = 900 }, "-skew-ps applies only to -mode mesochronous"},
		{"no workload", func(o *options) { o.Random = 0 }, "need -spec, -random or -scenario"},
		{"scenario with random", func(o *options) { o.Scenario, o.Conns = "uniform", 8 }, "-scenario excludes -spec and -random"},
		{"conns without scenario", func(o *options) { o.Conns = 8 }, "-conns applies only with -scenario"},
		{"reconfig asynchronous", func(o *options) { o.mode, o.reconfig = "asynchronous", "close@2000:3" }, "-reconfig cannot serve asynchronous mode"},
	}
	for _, c := range cases {
		o := goldenOptions()
		c.set(&o)
		err := o.validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected rejection: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted, want error containing %q", c.name, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}
