package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/trace"
)

// serveWorkload is serve_mixed: an in-process aelite-serve (scheduler
// with an fsync'd journal and an artifacts directory, HTTP API on a
// loopback listener) driven by one closed-loop client on one connection.
// Each op is one job: submit, wait on its SSE stream, fetch the
// artifact. Jobs alternate between a compare study (aelite, aethereal and
// routerless under the shared trace bus and auditor) and a two-shard
// asynchronous scenario campaign, each with a fresh seed derived from
// the workload seed so fingerprint dedup never answers from a finished
// job.
type serveWorkload struct {
	seed  int64
	smoke bool
	tmp   string

	srv  *serveInstance // made by setup
	jobs []servedJob
}

// servedJob is a job that ran to a fetched artifact.
type servedJob struct {
	op       int
	spec     serve.JobSpec
	artifact []byte
}

// goldenJobs is how many leading jobs' artifacts golden.json pins, and
// repeatJobs how many are re-run on a fresh server to check determinism.
const (
	goldenJobs = 4
	repeatJobs = 2
)

func newServe(opts options) *serveWorkload {
	return &serveWorkload{seed: opts.seed, smoke: opts.smoke, tmp: filepath.Join(opts.out, "tmp")}
}

func (w *serveWorkload) shared() bool { return true }

// spec is job i's spec.
func (w *serveWorkload) spec(i int) serve.JobSpec {
	s := serve.JobSpec{
		Cols: 3, Rows: 3, Conns: 8, Seed: w.seed*100000 + int64(i) + 1,
		WarmupNs: 4000, MeasureNs: 30000,
	}
	if w.smoke {
		s.Cols, s.Rows, s.Conns = 2, 2, 3
	}
	if i%3 != 2 {
		s.Kind, s.Family = "compare", string(scenario.Uniform)
		return s
	}
	s.Kind, s.Family, s.Mode, s.Shards = "scenario", string(scenario.Hotspot), "asynchronous", 2
	s.MeasureNs = 10000
	return s
}

func (w *serveWorkload) inputs() string {
	specs := make([]serve.JobSpec, goldenJobs)
	for i := range specs {
		specs[i] = w.spec(i)
	}
	b, err := json.Marshal(specs)
	if err != nil {
		return "error: " + err.Error()
	}
	return sha(b)
}

func (w *serveWorkload) setup(o *op) error {
	if err := os.MkdirAll(w.tmp, 0o755); err != nil {
		return err
	}
	_, err := o.span("serve.start", func() error {
		var err error
		w.srv, err = startServe(w.tmp)
		return err
	})
	return err
}

func (w *serveWorkload) close() error {
	if w.srv == nil {
		return nil
	}
	err := w.srv.stop()
	w.srv = nil
	return err
}

func (w *serveWorkload) op(o *op) (*outcome, error) {
	spec := w.spec(o.index)
	res, err := w.srv.runJob(o, spec)
	if err != nil {
		return nil, err
	}
	w.jobs = append(w.jobs, servedJob{op: o.index, spec: spec, artifact: res.artifact})
	out := &outcome{attempted: 1, vals: res.vals, untimed: res.notifyDelay}
	_, _ = o.span("check", func() error {
		out.problems = res.problems()
		return nil
	})
	if spec.Kind == "compare" {
		out.attribute = func() error {
			n, err := countCompareEvents(spec)
			out.vals["trace.events"] = float64(n)
			return err
		}
	}
	return out, nil
}

// finish checks the artifacts: against golden.json at the default seed,
// and by re-running the leading jobs on a fresh server.
func (w *serveWorkload) finish(b *bench) (err error) {
	if st, err := os.Stat(w.srv.journalPath); err == nil && len(w.jobs) > 0 {
		b.runVals["serve.journal_bytes_per_job"] = float64(st.Size()) / float64(len(w.jobs))
	}
	lead := w.jobs[:min(goldenJobs, len(w.jobs))]
	var arts [][]byte
	for _, j := range lead {
		arts = append(arts, j.artifact)
	}
	b.refHash = sha(bytes.Join(arts, nil))
	if g := b.opts.golden[wServe]; g != "" && b.opts.goldenApplies() {
		switch {
		case len(lead) < goldenJobs || lead[goldenJobs-1].op != goldenJobs-1:
			b.fail(0, fmt.Sprintf("jobs 0-%d did not all finish; golden.json pins their artifacts", goldenJobs-1))
		case b.refHash != g:
			for _, j := range lead {
				b.fail(j.op, fmt.Sprintf("artifacts of jobs 0-%d digest to %s, golden.json has %s", goldenJobs-1, short(b.refHash), short(g)))
			}
		}
	}

	fresh, err := startServe(w.tmp)
	if err != nil {
		return err
	}
	defer func() {
		if serr := fresh.stop(); err == nil {
			err = serr
		}
	}()
	for _, j := range w.jobs[:min(repeatJobs, len(w.jobs))] {
		res, err := fresh.runJob(&op{index: j.op}, j.spec)
		if err != nil {
			return fmt.Errorf("repeat of job %d: %w", j.op, err)
		}
		if !bytes.Equal(res.artifact, j.artifact) {
			b.fail(j.op, "artifact differs when the job is re-run on a fresh server")
		}
	}
	return nil
}

// serveInstance is one running in-process server.
type serveInstance struct {
	dir         string
	journalPath string
	journal     *serve.Journal
	sched       *serve.Scheduler
	http        *http.Server
	served      chan error
	base        string
	client      *http.Client
}

// startServe starts a scheduler with a fresh journal and artifacts
// directory under parent, serves its API on a loopback port, and waits
// for /healthz.
func startServe(parent string) (_ *serveInstance, err error) {
	s := &serveInstance{}
	if s.dir, err = os.MkdirTemp(parent, "serve-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = s.stop()
		}
	}()
	s.journalPath = filepath.Join(s.dir, "journal.jsonl")
	if s.journal, err = serve.OpenJournal(s.journalPath); err != nil {
		return s, err
	}
	s.sched = serve.NewScheduler(serve.SchedulerConfig{
		Workers: 1, Journal: s.journal, ArtifactsDir: filepath.Join(s.dir, "artifacts"),
	})
	s.sched.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: serve.NewServer(s.sched), ReadHeaderTimeout: 5 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.http.Serve(ln) }()
	// One client connection, reused for every request.
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   2 * time.Minute,
	}
	_, err = s.get("/healthz")
	return s, err
}

// stop shuts the server down, drains the scheduler, closes the journal
// and removes the instance's directory.
func (s *serveInstance) stop() error {
	var errs []error
	if s.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.http.Shutdown(ctx))
		cancel()
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.client.CloseIdleConnections()
	}
	if s.sched != nil {
		s.sched.Drain(10 * time.Second)
	}
	if s.journal != nil {
		errs = append(errs, s.journal.Close())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

func (s *serveInstance) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// jobResult is one finished job as the client saw it.
type jobResult struct {
	spec     serve.JobSpec
	events   []serve.Event
	artifact []byte
	vals     map[string]float64
	// notifyDelay is how long after the server stamped the terminal
	// event the client received it: the SSE stream polls for new events
	// on a 50 ms tick.
	notifyDelay time.Duration
}

// runJob submits spec, follows its SSE stream to the terminal event and
// fetches the artifact.
func (s *serveInstance) runJob(o *op, spec serve.JobSpec) (*jobResult, error) {
	res := &jobResult{spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var view serve.JobView
	submit, err := o.span("serve.submit", func() error {
		resp, err := s.client.Post(s.base+"/api/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(b)))
		}
		return json.NewDecoder(resp.Body).Decode(&view)
	})
	if err != nil {
		return nil, err
	}
	var received time.Time
	wait, err := o.span("serve.wait", func() error {
		res.events, received, err = s.follow(view.ID)
		return err
	})
	if err != nil {
		return nil, err
	}
	if d := received.Sub(res.events[len(res.events)-1].At); d > 0 {
		res.notifyDelay = d
	}
	fetch, err := o.span("serve.fetch", func() error {
		res.artifact, err = s.get("/api/jobs/" + view.ID + "/artifact")
		return err
	})
	if err != nil {
		return nil, err
	}
	res.vals = map[string]float64{
		"job_ms":          ms(submit + wait + fetch),
		"serve.submit_ms": ms(submit),
		"serve.fetch_ms":  ms(fetch),
		"serve.retries":   0,
	}
	res.stageTimes()
	return res, nil
}

// follow reads the job's SSE stream until its terminal event and returns
// the events and when the terminal one arrived.
func (s *serveInstance) follow(id string) ([]serve.Event, time.Time, error) {
	resp, err := s.client.Get(s.base + "/api/jobs/" + id + "/events")
	if err != nil {
		return nil, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, time.Time{}, fmt.Errorf("events: %s", resp.Status)
	}
	var evs []serve.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, time.Time{}, fmt.Errorf("events: %w", err)
		}
		evs = append(evs, ev)
		if ev.State.Terminal() {
			received := time.Now()
			// Drain the stream's end so the connection is reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return evs, received, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, time.Time{}, err
	}
	return nil, time.Time{}, errors.New("events: stream ended before a terminal state")
}

// stageTimes derives the server-side stages from the event timestamps:
// queued → running is the queue wait, each "shard done" event closes a
// shard, and the done event closes the artifact finalisation.
func (r *jobResult) stageTimes() {
	var queued, running, last time.Time
	var shards []time.Duration
	for _, ev := range r.events {
		switch {
		case ev.State == serve.StateQueued:
			queued = ev.At
		case ev.State == serve.StateRunning && ev.Shard < 0:
			running, last = ev.At, ev.At
		case ev.State == serve.StateRunning && strings.HasSuffix(ev.Detail, "done"):
			shards = append(shards, ev.At.Sub(last))
			last = ev.At
		case ev.State == serve.StateDone:
			if !running.IsZero() {
				r.vals["serve.finalize_ms"] = ms(ev.At.Sub(last))
			}
		case ev.State == serve.StateRetrying:
			r.vals["serve.retries"]++
		}
	}
	if !queued.IsZero() && !running.IsZero() {
		r.vals["serve.queue_ms"] = ms(running.Sub(queued))
	}
	if len(shards) > 0 {
		var sum time.Duration
		for _, d := range shards {
			sum += d
		}
		key := "serve.async_shard_ms"
		if r.spec.Kind == "compare" {
			key = "serve.compare_shard_ms"
		}
		r.vals[key] = ms(sum) / float64(len(shards))
	}
}

// problems lists the job's failures: a job that did not end done, a
// retry, an audit violation, or a broken aelite guarantee.
func (r *jobResult) problems() []string {
	var out []string
	last := r.events[len(r.events)-1]
	if last.State != serve.StateDone {
		out = append(out, fmt.Sprintf("job ended %s: %s", last.State, last.Detail))
	}
	if last.Retries > 0 {
		out = append(out, fmt.Sprintf("job needed %d retries", last.Retries))
	}
	var art serve.Artifact
	if err := json.Unmarshal(r.artifact, &art); err != nil {
		return append(out, fmt.Sprintf("artifact: %v", err))
	}
	if len(art.Shards) != max(1, r.spec.Shards) {
		out = append(out, fmt.Sprintf("artifact has %d shards, want %d", len(art.Shards), max(1, r.spec.Shards)))
	}
	var violations int64
	for _, sh := range art.Shards {
		if sh.Compare != nil {
			for _, p := range sh.Compare.Points {
				violations += p.AuditViolations
				if p.HasBounds && !p.AllWithinBound {
					out = append(out, fmt.Sprintf("compare %s/%s: latency above its bound", p.Family, p.Backend))
				}
				if p.Backend == "aelite" && !p.AllMetThroughput {
					out = append(out, fmt.Sprintf("compare %s/aelite: missed a throughput requirement", p.Family))
				}
			}
			continue
		}
		if !sh.AllMet || !sh.AllWithinBound {
			out = append(out, fmt.Sprintf("shard %d (%s): all_met %v, all_within_bound %v", sh.Shard, sh.Name, sh.AllMet, sh.AllWithinBound))
		}
	}
	r.vals["audit.violations"] = float64(violations)
	if violations > 0 {
		out = append(out, fmt.Sprintf("%d audit violations", violations))
	}
	// One failed operation per job, however many reasons.
	if len(out) > 1 {
		out = []string{strings.Join(out, "; ")}
	}
	return out
}

// countCompareEvents re-runs a compare job's cells through the backend
// seam with a counting sink on the trace bus, exactly as the study wires
// them, and returns the events emitted. Serve does not expose the count.
func countCompareEvents(spec serve.JobSpec) (int64, error) {
	spec.Normalize()
	var n eventCounter
	for _, name := range backend.Names() {
		b, err := backend.ByName(name)
		if err != nil {
			return 0, err
		}
		scfg := scenario.Default(scenario.Family(spec.Family), spec.Cols, spec.Rows, spec.Conns, spec.Seed)
		s, err := scenario.Generate(scfg)
		if err != nil {
			return 0, err
		}
		inst, err := b.Build(s.Mesh(), s.UseCase, backend.Params{
			FreqMHz: scfg.FreqMHz, WordBytes: scfg.WordBytes, TableSize: scfg.TableSize,
			Mode: core.Synchronous, FastReplay: true,
		})
		if err != nil {
			return 0, err
		}
		bus := trace.NewBus()
		bus.Attach(&n)
		inst.AttachTracer(bus)
		if b.HasBounds() {
			inst.Audit(bus, fault.NewCollector(), audit.Options{})
		}
		inst.Run(spec.WarmupNs, spec.MeasureNs)
	}
	return int64(n), nil
}

type eventCounter int64

func (c *eventCounter) Event(trace.Event) { *c++ }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
