package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	maxOps   int
	out      string
	// blockSeconds is the length of one traced or untraced block of ops
	// in a traced run; blocks keep CPU profiling from starting and
	// stopping around every op.
	blockSeconds float64
	// golden maps workloads to the SHA-256 of their canonical output at
	// defaultSeed. checkGolden forces the comparison (self-tests at smoke
	// size); otherwise it applies at defaultSeed on full-size inputs.
	golden      map[string]string
	checkGolden bool
}

func (o options) goldenApplies() bool {
	return o.checkGolden || (o.seed == defaultSeed && !o.smoke)
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]string, error) {
	var g struct {
		Seed   int64             `json:"seed"`
		SHA256 map[string]string `json:"sha256"`
	}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Seed != defaultSeed {
		return nil, fmt.Errorf("golden.json pins seed %d, the default seed is %d", g.Seed, defaultSeed)
	}
	return g.SHA256, nil
}

// A workload is one benchmark scenario. The bench times setup as
// setup_s and each op from before its set-up (or from submit, for
// workloads whose ops share one set-up) to its checked output as wall_s.
type workload interface {
	// shared reports whether the ops share one set-up (serve) rather
	// than each paying its own (simulation and planning).
	shared() bool
	setup(o *op) error
	op(o *op) (*outcome, error)
	// finish runs after the last op: end-of-run checks over all ops.
	finish(b *bench) error
	// close releases what setup made.
	close() error
	// inputs fingerprints the inputs the seed generated.
	inputs() string
}

// An outcome is one op's checked result.
type outcome struct {
	// attempted counts the operations in the op: one built-and-run
	// network, one allocator pass or one serve job each.
	attempted int
	// problems lists the failed operations' reasons (at most attempted).
	problems []string
	// digest is the SHA-256 of the canonical output ("" when the
	// workload checks its outputs itself in finish).
	digest string
	// vals are per-op metric values, keyed by metric name.
	vals map[string]float64
	// untimed is time inside the op that is not the system's work (the
	// serve client's wait for the SSE stream's next poll tick); it is
	// left out of wall_s.
	untimed time.Duration
	// attribute, when set, runs after a traced op outside its timing and
	// outside the CPU profile, adding values the op itself must not pay
	// for (an extra planning pass, a trace-event count).
	attribute func() error
}

type opRecord struct {
	traced  bool
	wallS   float64
	allocMB float64
	out     *outcome
	failed  int
}

type bench struct {
	opts    options
	w       workload
	rec     *recorder
	cpu     *cpuSplit
	setups  []float64
	ops     []*opRecord
	refHash string
	notes   []string
	// runVals are per-run metric values set by finish.
	runVals map[string]float64
}

// A run sets up at least setupReps times and for setupSeconds, at most
// maxSetupReps times: set-up time is read as a median.
const (
	setupReps    = 5
	setupSeconds = 0.25
	maxSetupReps = 200
)

// defaultBlockSeconds is options.blockSeconds outside the self-tests.
const defaultBlockSeconds = 1.5

func newWorkload(opts options) (workload, error) {
	switch opts.workload {
	case wSec7:
		return newSec7(opts), nil
	case wMesh8:
		return newMesh8(opts), nil
	case wPlan:
		return newPlan32(opts), nil
	case wServe:
		return newServe(opts), nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", opts.workload, strings.Join(allWorkloads, " | "))
}

// runBench runs one workload and returns the result line and the info
// line.
func runBench(opts options) (*result, *info, error) {
	w, err := newWorkload(opts)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return nil, nil, err
	}
	b := &bench{opts: opts, w: w, rec: &recorder{}, cpu: newCPUSplit(), runVals: make(map[string]float64)}
	err = b.measure()
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	return b.result()
}

func (b *bench) measure() error {
	// Set up several times: set-up time is a median. For shared set-ups
	// the last one stays up for the ops.
	for k, t0 := 0, time.Now(); k < maxSetupReps && (k < setupReps || time.Since(t0).Seconds() < setupSeconds); k++ {
		if k > 0 && b.w.shared() {
			if err := b.w.close(); err != nil {
				return err
			}
		}
		o := b.newOp(-1, false)
		start := time.Now()
		if err := b.w.setup(o); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setups = append(b.setups, time.Since(start).Seconds())
	}

	start := time.Now()
	budget := b.opts.seconds
	traced, blockStart := false, time.Now()
	var prof bytes.Buffer
	var pending []*opRecord // traced ops awaiting attribution
	endBlock := func() error {
		if traced {
			pprof.StopCPUProfile()
			if err := b.cpu.add(prof.Bytes()); err != nil {
				return err
			}
			if err := b.saveProfile(prof.Bytes()); err != nil {
				return err
			}
			prof.Reset()
			for _, r := range pending {
				if r.out != nil && r.out.attribute != nil {
					if err := r.out.attribute(); err != nil {
						return fmt.Errorf("attribution: %w", err)
					}
				}
			}
			pending = nil
		}
		return nil
	}
	lastWall := 0.0
	for i := 0; ; i++ {
		elapsed := time.Since(start).Seconds()
		if i > 0 && (elapsed+lastWall > budget || (b.opts.maxOps > 0 && i >= b.opts.maxOps)) {
			break
		}
		if b.opts.trace && (i == 0 || time.Since(blockStart).Seconds() >= b.opts.blockSeconds) {
			if i > 0 {
				if err := endBlock(); err != nil {
					return err
				}
				traced = !traced
			}
			blockStart = time.Now()
			if traced {
				if err := pprof.StartCPUProfile(&prof); err != nil {
					return err
				}
			}
		}
		r := b.runOp(i, traced)
		b.ops = append(b.ops, r)
		if traced {
			pending = append(pending, r)
		}
		lastWall = r.wallS
	}
	if err := endBlock(); err != nil {
		return err
	}
	b.checkDigests()
	return b.w.finish(b)
}

// runOp runs and times one op, turning errors and panics into failures.
func (b *bench) runOp(i int, traced bool) (r *opRecord) {
	r = &opRecord{traced: traced}
	o := b.newOp(i, traced)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	var out *outcome
	defer func() {
		r.wallS = time.Since(start).Seconds()
		runtime.ReadMemStats(&ms)
		r.allocMB = float64(ms.TotalAlloc-alloc0) / (1 << 20)
		if p := recover(); p != nil {
			r.failed = 1
			b.notes = append(b.notes, fmt.Sprintf("op %d panicked: %v", i, p))
			return
		}
		if r.out != nil {
			r.wallS -= r.out.untimed.Seconds()
		}
	}()
	_, err := o.span(b.opts.workload, func() error {
		if !b.w.shared() {
			t := time.Now()
			if err := b.w.setup(o); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			b.setups = append(b.setups, time.Since(t).Seconds())
		}
		var err error
		out, err = b.w.op(o)
		return err
	})
	if err != nil {
		r.failed = 1
		b.notes = append(b.notes, fmt.Sprintf("op %d: %v", i, err))
		return r
	}
	r.out = out
	r.failed = len(out.problems)
	for _, p := range out.problems {
		b.notes = append(b.notes, fmt.Sprintf("op %d: %s", i, p))
	}
	return r
}

// checkDigests compares every op's output digest with the golden one at
// the default seed, and otherwise with the run's first op: same-seed
// repeats must be byte-identical.
func (b *bench) checkDigests() {
	want, src := "", "the run's first op"
	if g := b.opts.golden[b.opts.workload]; g != "" && b.opts.goldenApplies() {
		want, src = g, "golden.json"
	}
	for i, r := range b.ops {
		if r.out == nil || r.out.digest == "" {
			continue
		}
		if b.refHash == "" {
			b.refHash = r.out.digest
			if want == "" {
				want = r.out.digest
			}
		}
		if r.out.digest != want {
			b.fail(i, fmt.Sprintf("output digest %s differs from %s (%s)", short(r.out.digest), src, short(want)))
		}
	}
}

// fail marks every operation of op i failed.
func (b *bench) fail(i int, why string) {
	r := b.ops[i]
	if r.out != nil {
		r.failed = r.out.attempted
	} else {
		r.failed = 1
	}
	b.notes = append(b.notes, fmt.Sprintf("op %d: %s", i, why))
}

func (b *bench) newOp(i int, traced bool) *op {
	return &op{index: i, traced: traced, rec: b.rec, parent: -1, ctx: context.Background()}
}

func (b *bench) saveProfile(p []byte) error {
	name := fmt.Sprintf("cpu-%s-s%d-%03d.pb.gz", b.opts.workload, b.opts.seed, len(b.ops))
	return os.WriteFile(filepath.Join(b.opts.out, name), p, 0o644)
}

// An op is one unit of work's tracing context.
type op struct {
	index  int
	traced bool
	rec    *recorder
	parent int
	ctx    context.Context
}

// span runs fn as the named layer call and returns its duration. In a
// traced op it also records a span and sets pprof labels for the call.
func (o *op) span(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	if !o.traced {
		err := fn()
		return time.Since(start), err
	}
	id := o.rec.open(o.index, o.parent, name, start)
	parent, ctx := o.parent, o.ctx
	o.parent = id
	var err error
	pprof.Do(ctx, pprof.Labels("layer", name, "op", strconv.Itoa(o.index)), func(c context.Context) {
		o.ctx = c
		err = fn()
	})
	o.parent, o.ctx = parent, ctx
	end := time.Now()
	o.rec.close(id, end)
	return end.Sub(start), err
}

// A span is one recorded layer call. Spans of one op share Op; the op's
// root span has Parent -1.
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// A recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func (r *recorder) open(op, parent int, name string, start time.Time) int {
	if r.epoch.IsZero() {
		r.epoch = start
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Op: op, Parent: parent, Name: name, Start: start.Sub(r.epoch).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *recorder) close(id int, end time.Time) { r.spans[id].End = end.Sub(r.epoch).Nanoseconds() }

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
