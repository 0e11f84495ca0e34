package slots

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/phit"
	"repro/internal/route"
	"repro/internal/topology"
)

func TestByName(t *testing.T) {
	for name, want := range map[string]string{"": "greedy", "greedy": "greedy", "ripup": "ripup"} {
		al, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if al.Name() != want {
			t.Errorf("ByName(%q).Name() = %q, want %q", name, al.Name(), want)
		}
	}
	if _, err := ByName("anneal"); err == nil {
		t.Error("ByName accepted an unknown strategy")
	}
}

// contrivedRequests is TestRipUpBeatsGreedyContrived's workload, for a
// 2-slot table: A (connection 1) needs link 2; B (connection 2) prefers
// link 2 but has a detour over link 3.
func contrivedRequests() []Request {
	const l2, l3 = topology.LinkID(2), topology.LinkID(3)
	pathA := &route.Path{Src: 10, Dst: 11, Links: []topology.LinkID{l2}, Shift: []int{1}, TotalShift: 1}
	pathB2 := &route.Path{Src: 12, Dst: 13, Links: []topology.LinkID{l2}, Shift: []int{1}, TotalShift: 1}
	pathB3 := &route.Path{Src: 12, Dst: 13, Links: []topology.LinkID{l3}, Shift: []int{2}, TotalShift: 2}
	return []Request{
		{Conn: 1, Paths: []*route.Path{pathA}, Count: 1},
		{Conn: 2, Paths: []*route.Path{pathB2, pathB3}, Count: 2},
	}
}

// TestRipUpBeatsGreedyContrived builds the minimal workload where rip-up
// provably wins: a 2-slot table, a heavy connection B whose preferred
// (lower-shift) path fully claims the shared link L2 but whose detour
// path over L3 is wide open, and a light connection A whose only path is
// L2. Greedy serves B first (heavier), saturates L2 and fails A; rip-up
// releases B, places A on L2 and re-places B on the detour.
func TestRipUpBeatsGreedyContrived(t *testing.T) {
	const l3 = topology.LinkID(3)
	reqs := contrivedRequests()

	ag := NewAllocation(2)
	gres, err := (Greedy{}).Place(ag, reqs, true)
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	if len(gres.Placed) != 1 || gres.Placed[0] != 2 || len(gres.Failed) != 1 || gres.Failed[0].Conn != 1 {
		t.Fatalf("greedy placed %v failed %+v; want B placed, A failed", gres.Placed, gres.Failed)
	}

	ar := NewAllocation(2)
	rres, err := (RipUp{}).Place(ar, reqs, true)
	if err != nil {
		t.Fatalf("ripup: %v", err)
	}
	if len(rres.Placed) != 2 || len(rres.Failed) != 0 {
		t.Fatalf("ripup placed %v failed %+v; want both placed", rres.Placed, rres.Failed)
	}
	if rres.RipUps != 1 {
		t.Errorf("RipUps = %d, want 1", rres.RipUps)
	}
	if err := ar.Verify(); err != nil {
		t.Fatalf("repaired allocation fails Verify: %v", err)
	}
	// B must have moved to the detour: L2 carries A now.
	onL3 := false
	for s := 0; s < 2; s++ {
		if ar.LinkOwner(l3, s) == 2 {
			onL3 = true
		}
	}
	if !onL3 {
		t.Error("connection B was not re-placed on the detour link")
	}
}

// randomRequests draws a reproducible contended workload on a 4x4 mesh.
func randomRequests(t *testing.T, seed int64, n int) []Request {
	t.Helper()
	m := topology.NewMesh(4, 4, 1)
	rng := rand.New(rand.NewSource(seed))
	var reqs []Request
	for i := 0; i < n; i++ {
		sx, sy := rng.Intn(4), rng.Intn(4)
		dx, dy := rng.Intn(4), rng.Intn(4)
		if sx == dx && sy == dy {
			dx = (dx + 1) % 4
		}
		paths, err := route.Candidates(m, m.NIAt(sx, sy, 0), m.NIAt(dx, dy, 0), 4)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, Request{
			Conn:  phit.ConnID(i + 1),
			Paths: paths,
			Count: 1 + rng.Intn(3),
		})
	}
	return reqs
}

// TestRipUpNeverWorseThanGreedy is the structural guarantee the scale
// study's Verify leans on: because best-effort rip-up repairs run as a
// post-pass over the unchanged greedy outcome, the placed set is a
// superset of greedy's on every workload.
func TestRipUpNeverWorseThanGreedy(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		reqs := randomRequests(t, seed, 40)

		ag := NewAllocation(8)
		gres, err := (Greedy{}).Place(ag, reqs, true)
		if err != nil {
			t.Fatalf("seed %d greedy: %v", seed, err)
		}
		ar := NewAllocation(8)
		rres, err := (RipUp{}).Place(ar, reqs, true)
		if err != nil {
			t.Fatalf("seed %d ripup: %v", seed, err)
		}

		placed := make(map[phit.ConnID]bool, len(rres.Placed))
		for _, c := range rres.Placed {
			placed[c] = true
		}
		for _, c := range gres.Placed {
			if !placed[c] {
				t.Errorf("seed %d: greedy placed connection %d but ripup did not", seed, c)
			}
		}
		if rres.SuccessRate() < gres.SuccessRate() {
			t.Errorf("seed %d: ripup success %.3f below greedy %.3f",
				seed, rres.SuccessRate(), gres.SuccessRate())
		}
		if err := ag.Verify(); err != nil {
			t.Errorf("seed %d greedy Verify: %v", seed, err)
		}
		if err := ar.Verify(); err != nil {
			t.Errorf("seed %d ripup Verify: %v", seed, err)
		}
	}
}

// TestAllocateWithStrict checks the strict path of both strategies:
// whatever greedy can place in full, rip-up places too, and both reject
// malformed requests outright.
func TestAllocateWithStrict(t *testing.T) {
	reqs := randomRequests(t, 3, 10)
	for _, al := range Allocators() {
		a, err := AllocateWith(al, 16, reqs)
		if err != nil {
			t.Fatalf("%s strict: %v", al.Name(), err)
		}
		if err := a.Verify(); err != nil {
			t.Fatalf("%s Verify: %v", al.Name(), err)
		}
		bad := []Request{{Conn: 99, Paths: reqs[0].Paths, Count: 0}}
		if _, err := AllocateWith(al, 16, bad); err == nil {
			t.Errorf("%s accepted a zero-count request", al.Name())
		}
	}
}

// cloneRipUp is the clone-per-trial rip-up allocator RipUp replaced: the
// same Place loop, but every repair trial runs on a deep copy that is
// adopted only on success. It is the oracle RipUp's in-place undo log is
// checked against. trials counts the repair trials it ran by outcome.
type cloneRipUp struct {
	trials map[string]int
}

func (o cloneRipUp) Place(a *Allocation, requests []Request, bestEffort bool) (Result, error) {
	const maxVictims = 3
	var res Result
	reqOf := make(map[phit.ConnID]Request, len(requests))
	placedHere := make(map[phit.ConnID]bool, len(requests))
	adopt := func(req Request) {
		reqOf[req.Conn] = req
		placedHere[req.Conn] = true
		res.Placed = append(res.Placed, req.Conn)
	}
	var failed []Request
	for _, idx := range requestOrder(requests) {
		req := requests[idx]
		if err := checkRequest(a, req); err != nil {
			return res, err
		}
		if asg := placeRequest(a, req); asg != nil {
			commitAssignment(a, req, asg)
			adopt(req)
			continue
		}
		if !bestEffort {
			if o.repair(a, req, reqOf, placedHere, maxVictims) {
				res.RipUps++
				adopt(req)
				continue
			}
			return res, placementError(a, req)
		}
		failed = append(failed, req)
	}
	for _, req := range failed {
		if o.repair(a, req, reqOf, placedHere, maxVictims) {
			res.RipUps++
			adopt(req)
			continue
		}
		res.Failed = append(res.Failed, Failure{Conn: req.Conn, Err: placementError(a, req)})
	}
	return res, nil
}

func (o cloneRipUp) repair(a *Allocation, req Request, reqOf map[phit.ConnID]Request, rippable map[phit.ConnID]bool, maxVictims int) bool {
	victims := blockers(a, req, rippable)
	if len(victims) == 0 {
		return false
	}
	if len(victims) > maxVictims {
		victims = victims[:maxVictims]
	}
	for k := 1; k <= len(victims); k++ {
		set := victims[:k]
		trial := a.Clone()
		for _, v := range set {
			trial.Release(v)
		}
		asg := placeRequest(trial, req)
		if asg == nil {
			o.trials["blocked request did not land"]++
			continue
		}
		commitAssignment(trial, req, asg)
		ok := true
		for _, v := range set {
			vreq := reqOf[v]
			vasg := placeRequest(trial, vreq)
			if vasg == nil {
				ok = false
				break
			}
			commitAssignment(trial, vreq, vasg)
		}
		if !ok {
			o.trials["a victim did not land"]++
			continue
		}
		o.trials["adopted"]++
		a.ByConn = trial.ByConn
		a.linkOcc = trial.linkOcc
		return true
	}
	return false
}

// sameAllocation reports the first difference between two allocations'
// assignments: owners, slots, primary paths and per-slot paths (paths
// compared by identity, since both sides route from the same requests).
func sameAllocation(got, want *Allocation) error {
	if g, w := got.Conns(), want.Conns(); !slices.Equal(g, w) {
		return fmt.Errorf("owners %v, want %v", g, w)
	}
	for _, c := range want.Conns() {
		g, w := got.ByConn[c], want.ByConn[c]
		if g.Conn != w.Conn || g.Path != w.Path || !slices.Equal(g.Slots, w.Slots) || !maps.Equal(g.PathOf, w.PathOf) {
			return fmt.Errorf("connection %d: slots %v on %v, want %v on %v", c, g.Slots, g.PathOf, w.Slots, w.PathOf)
		}
	}
	return nil
}

// TestRipUpMatchesCloneOracle checks that rip-up trials run in place with
// an undo log decide exactly as the clone-per-trial repair did: same
// placement order, repair count, failures and diagnostics, and the same
// slots and paths for every assignment, in both modes. The workloads must
// exercise adopted repairs and both kinds of rolled-back trial, so every
// branch of the undo log runs.
func TestRipUpMatchesCloneOracle(t *testing.T) {
	type workload struct {
		name  string
		table int
		reqs  []Request
	}
	var workloads []workload
	for seed := int64(1); seed <= 8; seed++ {
		for _, table := range []int{8, 16} {
			workloads = append(workloads, workload{fmt.Sprintf("seed %d table %d", seed, table), table, randomRequests(t, seed, 40)})
		}
	}
	workloads = append(workloads, workload{"contrived", 2, contrivedRequests()})

	oracle := cloneRipUp{trials: make(map[string]int)}
	for _, w := range workloads {
		for _, bestEffort := range []bool{true, false} {
			name := fmt.Sprintf("%s best-effort %v", w.name, bestEffort)
			got, want := NewAllocation(w.table), NewAllocation(w.table)
			gres, gerr := (RipUp{}).Place(got, w.reqs, bestEffort)
			wres, werr := oracle.Place(want, w.reqs, bestEffort)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Errorf("%s: error %v, want %v", name, gerr, werr)
			}
			if !slices.Equal(gres.Placed, wres.Placed) || gres.RipUps != wres.RipUps {
				t.Errorf("%s: placed %v with %d rip-ups, want %v with %d",
					name, gres.Placed, gres.RipUps, wres.Placed, wres.RipUps)
			}
			if fmt.Sprint(gres.Failed) != fmt.Sprint(wres.Failed) {
				t.Errorf("%s: failed %v, want %v", name, gres.Failed, wres.Failed)
			}
			if err := sameAllocation(got, want); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if err := got.Verify(); err != nil {
				t.Errorf("%s: Verify: %v", name, err)
			}
		}
	}
	for _, outcome := range []string{"adopted", "blocked request did not land", "a victim did not land"} {
		if oracle.trials[outcome] == 0 {
			t.Errorf("no repair trial ended %q; the workloads no longer cover that branch (%v)", outcome, oracle.trials)
		}
	}
	t.Logf("repair trials by outcome: %v", oracle.trials)
}
