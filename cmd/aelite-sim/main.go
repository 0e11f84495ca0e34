// Command aelite-sim runs a use case through the cycle-accurate simulator
// — the aelite guaranteed-service network (synchronous, mesochronous or
// asynchronous), the Æthereal best-effort baseline, or the routerless
// ring-overlay fabric — and prints the per-connection report. Every
// backend is built and run through the internal/backend seam.
//
// Usage:
//
//	aelite-sim -spec usecase.json [flags]
//	aelite-sim -random N [flags]
//	aelite-sim -scenario FAMILY -conns N [flags]
//
// Flags:
//
//	-scenario F    generated workload family: uniform | hotspot | transpose |
//	               multimedia | dataflow (internal/scenario; deterministic in
//	               -seed, rates replay-admissible by default)
//	-conns N       connection count for -scenario
//	-alloc A       slot allocator: greedy | ripup (default greedy; ripup
//	               aelite only)
//	-backend B     aelite | aethereal (alias: be) | routerless
//	-mode M        synchronous | mesochronous | asynchronous (aelite only)
//	-freq MHZ      network frequency (default 500)
//	-warmup NS     warm-up before measurement (default 10000)
//	-measure NS    measurement window (default 50000)
//	-tx            transactional traffic (line-rate bursts) instead of CBR
//	-probes        enable dynamic TDM verification probes (aelite only)
//	-faults SPEC   fault campaign: op@TIMEns:target[:param];... or random:N
//	               (aelite only)
//	-fault-seed N  seed for random fault events (same seed, same campaign)
//	-reliable      wrap every NI port in the end-to-end reliability shell:
//	               CRC-protected flits, go-back-N retransmission and link
//	               quarantine (aelite only)
//	-bitflip-rate P  per-phit payload bit-flip probability on every link,
//	               0..1; a seeded rate process on top of -faults events
//	-drop-rate P   per-flit drop probability on every link, 0..1
//	-strict        fail fast on the first envelope violation instead of
//	               collecting violations and degrading gracefully
//	-skew-ps PS    checkerboard tile-skew override in mesochronous mode;
//	               values past half a period leave the paper's envelope
//	-runs N        fault-campaign sweep: run N campaigns with consecutive
//	               fault seeds (-fault-seed, +1, +2, ...), each on its own
//	               freshly built network, and print the per-run reports and
//	               summaries in seed order (requires -faults)
//	-j N           parallel workers for -runs sweeps (default all CPUs;
//	               output is byte-identical at every worker count)
//	-reconfig S    run-time reconfiguration script: semicolon-separated
//	               actions, each close@TIMEns:CONN or
//	               open@TIMEns:SRCIP:DSTIP:MBPS:LATNS, applied inside the
//	               measurement window (TIME is relative to its start). A
//	               close drains and releases the connection; an open runs
//	               admission control and either admits the request with its
//	               full guarantees under a fresh connection id or prints the
//	               typed rejection reason (no-path, no-slots,
//	               bound-infeasible, ...) and changes nothing. Running
//	               connections are never disturbed either way. With -audit
//	               the auditor is resynchronised after every action. aelite
//	               only, single runs, not asynchronous mode
//	-fast          hyperperiod-compiled fast replay: record one hyperperiod
//	               of the cycle-accurate schedule and replay it; workloads
//	               that are not provably periodic fall back to cycle-accurate
//	               execution untouched (aelite only)
//	-audit         attach the guarantee-conformance auditor: every flit is
//	               checked against the connection's analytical worst-case
//	               latency and throughput contract, slot ownership and
//	               in-order delivery; violations print one-line diagnostics
//	               and exit non-zero (with -strict the first one fails
//	               fast); bounds-carrying backends (aelite, routerless)
//	               only, single runs only
//	-trace-out F   write a Chrome trace-event JSON of every flit lifecycle
//	               event (load in Perfetto or chrome://tracing)
//	-metrics-out F write aggregated per-connection/per-component metrics;
//	               a .csv suffix selects CSV, anything else JSON
//	-pprof F       write a CPU profile of the simulation run
//
// A campaign run (-faults or -skew-ps) prints the connection report
// followed by the deterministic campaign summary. Any fatal envelope
// violation (strict mode) or internal failure exits non-zero with a
// one-line diagnostic instead of a raw panic trace; invalid flag
// combinations — among them every aelite-only flag given with another
// backend — are rejected up front with exit code 2.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/audit"
	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/phit"
	"repro/internal/slots"
	"repro/internal/trace"
)

type options struct {
	cli.Workload

	backend   string
	mode      string
	warmup    float64
	measure   float64
	tx        bool
	probes    bool
	faults    string
	faultSeed int64
	reliable  bool
	bitflip   float64
	drop      float64
	strict    bool
	skewPS    int64
	runs      int
	jobs      int
	audit     bool
	reconfig  string
	fast      bool
	alloc     string

	traceOut   string
	metricsOut string
	pprofOut   string

	// clocking is -mode resolved by validate.
	clocking core.Mode
}

// rateFaults reports whether a seeded rate process is armed.
func (o *options) rateFaults() bool { return o.bitflip > 0 || o.drop > 0 }

// canonicalBackend resolves the -backend flag to a registry name ("be"
// stays as a compatibility alias for the Æthereal GS+BE baseline).
func (o *options) canonicalBackend() string {
	if o.backend == "be" {
		return "aethereal"
	}
	return o.backend
}

// faultPlan assembles the campaign plan for one run: the event spec (if
// any) parsed under the given seed, plus the all-links rate rules.
func (o *options) faultPlan(faultSeed int64) (*fault.Plan, error) {
	plan := &fault.Plan{Seed: faultSeed}
	if o.faults != "" {
		var err error
		plan, err = fault.ParseSpec(o.faults, faultSeed)
		if err != nil {
			return nil, err
		}
	}
	if o.rateFaults() {
		plan.Rates = append(plan.Rates, fault.RateRule{BitFlip: o.bitflip, Drop: o.drop})
	}
	return plan, nil
}

// validate rejects malformed flag combinations before anything is built
// or any output file is created, so every misuse gets a one-line
// diagnostic and exit code 2 instead of a late failure or a silently
// ignored value. It also resolves -mode.
func (o *options) validate() error {
	if err := o.Workload.Validate(); err != nil {
		return err
	}
	if o.warmup < 0 || o.measure <= 0 {
		return fmt.Errorf("-warmup %g must be >= 0 and -measure %g > 0", o.warmup, o.measure)
	}
	if _, err := slots.ByName(o.alloc); err != nil {
		return fmt.Errorf("-alloc: %w", err)
	}
	if _, err := backend.ByName(o.canonicalBackend()); err != nil {
		return fmt.Errorf("-backend: %w", err)
	}
	var err error
	if o.clocking, err = core.ParseMode(o.mode); err != nil {
		return err
	}
	if o.backend != "aelite" && o.clocking != core.Synchronous {
		return fmt.Errorf("-backend %s is single-clock; -mode %s needs the aelite backend", o.backend, o.mode)
	}
	if o.skewPS < 0 {
		return fmt.Errorf("-skew-ps %d is negative; skew is a magnitude in picoseconds", o.skewPS)
	}
	if o.skewPS != 0 && o.clocking != core.Mesochronous {
		return fmt.Errorf("-skew-ps applies only to -mode mesochronous (got %q)", o.mode)
	}
	if o.faults != "" {
		if _, err := fault.ParseSpec(o.faults, o.faultSeed); err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
	}
	if err := (fault.RateRule{BitFlip: o.bitflip, Drop: o.drop}).Validate(); err != nil {
		return fmt.Errorf("-bitflip-rate/-drop-rate: %w", err)
	}
	if o.backend != "aelite" {
		for _, f := range []struct {
			set  bool
			flag string
		}{
			{o.reliable || o.rateFaults(), "-reliable/-bitflip-rate/-drop-rate need"},
			{o.faults != "", "-faults needs"},
			{o.probes, "-probes needs"},
			{o.fast, "-fast needs"},
			{o.alloc != "greedy", "-alloc " + o.alloc + " needs"},
			{o.reconfig != "", "-reconfig needs"},
		} {
			if f.set {
				return fmt.Errorf("%s the aelite backend (got %q)", f.flag, o.backend)
			}
		}
	}
	if o.audit {
		// Every backend emits the traced flit lifecycle, but only
		// bounds-carrying backends have contracts for the auditor to check.
		bk, err := backend.ByName(o.canonicalBackend())
		if err == nil && !bk.HasBounds() {
			return fmt.Errorf("-audit checks analytical guarantee contracts and backend %q has none (best effort)", o.backend)
		}
	}
	if o.audit && o.runs > 1 {
		return fmt.Errorf("-audit attaches to a single run and cannot serve a -runs sweep")
	}
	if o.runs < 1 {
		return fmt.Errorf("-runs %d must be at least 1", o.runs)
	}
	if o.jobs < 1 {
		return fmt.Errorf("-j %d must be at least 1", o.jobs)
	}
	if o.reconfig != "" {
		if o.clocking == core.Asynchronous {
			return fmt.Errorf("-reconfig cannot serve asynchronous mode (slot counters are token-indexed)")
		}
		if o.runs > 1 {
			return fmt.Errorf("-reconfig scripts one run and cannot serve a -runs sweep")
		}
		if _, err := parseReconfigScript(o.reconfig); err != nil {
			return fmt.Errorf("-reconfig: %w", err)
		}
	}
	if o.runs > 1 {
		if o.faults == "" && !o.rateFaults() {
			return fmt.Errorf("-runs %d sweeps fault seeds and needs -faults, -bitflip-rate or -drop-rate", o.runs)
		}
		if o.traceOut != "" || o.metricsOut != "" {
			return fmt.Errorf("-trace-out/-metrics-out write one file and cannot serve a -runs sweep")
		}
	}
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.SpecPath, "spec", "", "use-case JSON")
	flag.IntVar(&o.Random, "random", 0, "generate this many random connections")
	flag.StringVar(&o.Scenario, "scenario", "", "generated workload family: uniform|hotspot|transpose|multimedia|dataflow")
	flag.IntVar(&o.Conns, "conns", 0, "connection count for -scenario")
	flag.StringVar(&o.alloc, "alloc", "greedy", "slot allocator: greedy | ripup")
	flag.Int64Var(&o.Seed, "seed", 1, "seed for -random/-scenario")
	flag.IntVar(&o.Cols, "cols", 4, "mesh columns")
	flag.IntVar(&o.Rows, "rows", 3, "mesh rows")
	flag.IntVar(&o.NIs, "nis", 4, "NIs per router")
	flag.StringVar(&o.backend, "backend", "aelite", "aelite | aethereal (alias: be) | routerless")
	flag.StringVar(&o.mode, "mode", "synchronous", "synchronous|mesochronous|asynchronous")
	flag.Float64Var(&o.FreqMHz, "freq", 500, "frequency in MHz")
	flag.Float64Var(&o.warmup, "warmup", 10000, "warm-up in ns")
	flag.Float64Var(&o.measure, "measure", 50000, "measurement window in ns")
	flag.BoolVar(&o.tx, "tx", false, "transactional traffic")
	flag.BoolVar(&o.probes, "probes", false, "TDM verification probes")
	flag.StringVar(&o.faults, "faults", "", "fault campaign spec")
	flag.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for random fault events")
	flag.BoolVar(&o.reliable, "reliable", false, "end-to-end reliability shell on every NI port")
	flag.Float64Var(&o.bitflip, "bitflip-rate", 0, "per-phit payload bit-flip probability on every link (0..1)")
	flag.Float64Var(&o.drop, "drop-rate", 0, "per-flit drop probability on every link (0..1)")
	flag.BoolVar(&o.strict, "strict", false, "fail fast on the first envelope violation")
	flag.Int64Var(&o.skewPS, "skew-ps", 0, "mesochronous tile-skew override in ps")
	flag.IntVar(&o.runs, "runs", 1, "fault-campaign sweep: campaigns with consecutive fault seeds")
	flag.IntVar(&o.jobs, "j", runtime.NumCPU(), "parallel workers for -runs sweeps")
	flag.BoolVar(&o.audit, "audit", false, "check every flit against the analytical guarantee contracts")
	flag.BoolVar(&o.fast, "fast", false, "hyperperiod-compiled fast replay (falls back to cycle-accurate when the workload is not provably periodic)")
	flag.StringVar(&o.reconfig, "reconfig", "", "run-time reconfiguration script (close@TIMEns:CONN;open@TIMEns:SRC:DST:MBPS:LATNS;...)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write Chrome trace-event JSON to this file")
	flag.StringVar(&o.metricsOut, "metrics-out", "", "write aggregated metrics to this file (.csv selects CSV)")
	flag.StringVar(&o.pprofOut, "pprof", "", "write a CPU profile to this file")
	flag.Parse()
	if err := o.validate(); err != nil {
		os.Exit(cli.Usage(tool, err))
	}
	os.Exit(run(o))
}

// run executes the simulation and returns the process exit code. Envelope
// violations in strict mode (and any internal failure) surface as panics;
// they are condensed into a one-line diagnostic rather than a stack trace.
func run(o options) (code int) {
	defer func() {
		if r := recover(); r != nil {
			code = cli.Fatal(tool, r)
		}
	}()

	if o.pprofOut != "" {
		f, err := os.Create(o.pprofOut)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if o.runs > 1 {
		return runCampaignSweep(o)
	}

	// Output files are opened before anything is built or simulated, so an
	// unwritable path fails in milliseconds instead of after a full run.
	// simulate closes them after a successful write; the deferred closes
	// release them on the error paths.
	var traceFile, metricsFile *os.File
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		traceFile = f
	}
	if o.metricsOut != "" {
		f, err := os.Create(o.metricsOut)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		metricsFile = f
	}
	code, err := simulate(o, o.faultSeed, os.Stdout, traceFile, metricsFile)
	if err != nil {
		return fail(err)
	}
	return code
}

// simulate builds the network the flags describe through the backend
// seam, runs it once under the given fault seed and writes the report —
// followed by the audit and campaign summaries when they are armed — to
// w. traceFile and metricsFile are the opened -trace-out and -metrics-out
// files, or nil. It returns the exit code the outcome maps to: a
// campaign's summary is its product, so only an audit failure fails it;
// any other run also fails on a missed requirement.
func simulate(o options, faultSeed int64, w io.Writer, traceFile, metricsFile *os.File) (int, error) {
	m, uc, err := o.Workload.Build()
	if err != nil {
		return 0, err
	}
	bk, err := backend.ByName(o.canonicalBackend())
	if err != nil {
		return 0, err
	}
	// A fault campaign is injected events, rate processes or an overridden
	// mesochronous skew. Campaigns always carry the TDM ownership probes:
	// a corrupted header re-routes a packet into slots reserved for
	// someone else, which only the allocation-aware probes can attribute.
	campaign := o.faults != "" || o.skewPS != 0 || o.rateFaults()
	p := backend.Params{FreqMHz: o.FreqMHz, Mode: o.clocking, Allocator: o.alloc,
		Transactional: o.tx, FastReplay: o.fast, Probes: o.probes || campaign,
		Reliable: o.reliable, SkewOverridePS: o.skewPS}
	// In a campaign, a collector switches every envelope check from
	// fail-fast panic to graceful violation recording; -strict keeps the
	// panics so the first violation halts the run.
	var collector *fault.Collector
	if campaign && !o.strict {
		collector = fault.NewCollector()
		p.FaultReporter = collector
	}
	inst, err := bk.Build(m, uc, p)
	if err != nil {
		return 0, err
	}
	// Fault campaigns and reconfiguration scripts act on the aelite
	// network itself; validate admits them with no other backend.
	var net *core.Network
	if an, ok := inst.(interface{ Network() *core.Network }); ok {
		net = an.Network()
	}

	// Tracing: one bus feeds the Chrome sink, the metrics sink and the
	// conformance auditor alike.
	var chrome *trace.Chrome
	var metrics *trace.Metrics
	var auditor *audit.Auditor
	var auditCol *fault.Collector
	if traceFile != nil || metricsFile != nil || o.audit {
		bus := trace.NewBus()
		if traceFile != nil {
			chrome = trace.NewChrome(bus)
			chrome.SetFlitCycle(phit.FlitWords * int64(clock.PeriodFromMHz(o.FreqMHz)))
		}
		if metricsFile != nil {
			metrics = trace.NewMetrics(bus)
		}
		if o.audit {
			// The auditor's reporter is kept separate from the campaign
			// collector: expected fault-campaign violations must never be
			// mixed with guarantee breaches. -strict keeps the fail-fast
			// nil reporter.
			var audRep fault.Reporter
			if !o.strict {
				auditCol = fault.NewCollector()
				audRep = auditCol
			}
			auditor = inst.Audit(bus, audRep, audit.Options{})
		}
		inst.AttachTracer(bus)
	}

	var acts []core.TimedAction
	if o.reconfig != "" {
		steps, err := parseReconfigScript(o.reconfig)
		if err != nil {
			return 0, err
		}
		acts = reconfigActions(steps, auditor)
	}
	var rep *core.Report
	runNet := func() error {
		if len(acts) == 0 {
			rep = inst.Run(o.warmup, o.measure)
			return nil
		}
		var err error
		rep, err = net.RunTimed(o.warmup, o.measure, acts)
		return err
	}
	var summary *fault.Summary
	if campaign {
		plan, err := o.faultPlan(faultSeed)
		if err != nil {
			return 0, err
		}
		var runErr error
		summary, err = fault.Execute(plan, collector, net, func() {
			runErr = runNet()
		})
		if err != nil {
			return 0, err
		}
		if runErr != nil {
			return 0, runErr
		}
	} else if err := runNet(); err != nil {
		return 0, err
	}

	// The "be" alias keeps its historical output: the verdict line only.
	if o.backend != "be" {
		rep.Write(w)
	}
	if chrome != nil {
		if err := writeTrace(traceFile, chrome); err != nil {
			return 0, err
		}
	}
	if metrics != nil {
		now := clock.Time(o.warmup*float64(clock.Nanosecond)) + clock.Time(o.measure*float64(clock.Nanosecond))
		if net != nil {
			now = net.Engine().Now() // a reconfiguration drain may run past the window
		}
		mrep := metrics.Report(int64(now), int64(clock.PeriodFromMHz(o.FreqMHz)))
		if err := writeMetrics(metricsFile, o.metricsOut, mrep); err != nil {
			return 0, err
		}
	}
	auditFailed := false
	if auditor != nil {
		fmt.Fprintln(w)
		auditor.WriteSummary(w)
		if auditor.Violations() > 0 {
			for _, v := range auditCol.Violations() {
				fmt.Fprintln(os.Stderr, "aelite-sim: audit:", v)
			}
			auditFailed = true
		}
	}
	code := 0
	if summary != nil {
		fmt.Fprintln(w)
		summary.Write(w)
	} else {
		code = verdict(w, rep)
	}
	if code == 0 && auditFailed {
		code = 1
	}
	return code, nil
}

// runCampaignSweep fans o.runs campaign points with consecutive fault
// seeds across the worker pool and prints each point's rendered output in
// seed order — byte-identical at every -j value. Every point builds its
// own use case, network and engine; a strict-mode envelope violation (or
// any other panic) in one point is returned as that point's error, so it
// cannot tear down the whole sweep.
func runCampaignSweep(o options) int {
	outs, err := parallel.Map(parallel.Jobs(o.jobs), o.runs, func(i int) (out []byte, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("fatal: %v", r)
			}
		}()
		var b bytes.Buffer
		if _, err := simulate(o, o.faultSeed+int64(i), &b, nil, nil); err != nil {
			return nil, err
		}
		return b.Bytes(), nil
	})
	if err != nil {
		return fail(err)
	}
	for i, out := range outs {
		fmt.Printf("== campaign %d/%d (fault seed %d) ==\n", i+1, o.runs, o.faultSeed+int64(i))
		os.Stdout.Write(out)
		if i < len(outs)-1 {
			fmt.Println()
		}
	}
	return 0
}

func verdict(w io.Writer, rep *core.Report) int {
	if rep.AllMet() {
		fmt.Fprintln(w, "\nall requirements met")
		return 0
	}
	fmt.Fprintf(w, "\n%d requirements MISSED\n", len(rep.Violations()))
	return 1
}

func writeTrace(f *os.File, c *trace.Chrome) error {
	if _, err := c.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeMetrics(f *os.File, path string, rep *trace.Report) error {
	var err error
	if strings.HasSuffix(path, ".csv") {
		err = rep.WriteCSV(f)
	} else {
		err = rep.WriteJSON(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tool names this command in every cli diagnostic.
const tool = "aelite-sim"

func fail(err error) int {
	return cli.Failure(tool, err)
}
