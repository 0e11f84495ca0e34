package experiments

import (
	"strings"
	"testing"
)

// TestCompareSmokeVerifies: the CI-sized study runs every registered
// backend clean — zero auditor violations, every bound held, every
// guarantee met.
func TestCompareSmokeVerifies(t *testing.T) {
	rep, err := CompareStudy(SmokeCompareConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatal(err)
	}
	if want := 2 * 3; len(rep.Points) != want {
		t.Fatalf("study produced %d points, want %d (2 families x 3 backends)", len(rep.Points), want)
	}
	backends := map[string]bool{}
	for _, p := range rep.Points {
		backends[p.Backend] = true
		if p.Delivered == 0 {
			t.Errorf("%s/%s delivered nothing", p.Family, p.Backend)
		}
	}
	for _, b := range []string{"aelite", "aethereal", "routerless"} {
		if !backends[b] {
			t.Errorf("backend %s missing from the study", b)
		}
	}
}

// TestCompareDeterministic: the rendered table and the JSON artifact are
// byte-identical across worker counts — the same-seed identity contract.
func TestCompareDeterministic(t *testing.T) {
	cfg := SmokeCompareConfig()
	cfg.MeasureNs = 4000
	run := func(jobs int) (string, string) {
		rep, err := CompareStudy(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		var table, art strings.Builder
		rep.Render(&table)
		if err := rep.WriteJSON(&art); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return table.String(), art.String()
	}
	t1, a1 := run(1)
	t2, a2 := run(4)
	if t1 != t2 {
		t.Errorf("tables diverge across worker counts:\n%s\n---\n%s", t1, t2)
	}
	if a1 != a2 {
		t.Error("JSON artifacts diverge across worker counts")
	}
	if !strings.Contains(a1, "\"audit_violations\": 0") {
		t.Errorf("artifact carries no clean audit column:\n%s", a1)
	}
}

// TestCompareRejectsUnknownBackend: a bad registry name fails the study
// with the name list in the error, not a panic mid-run.
func TestCompareRejectsUnknownBackend(t *testing.T) {
	cfg := SmokeCompareConfig()
	cfg.Backends = []string{"warp-drive"}
	if _, err := CompareStudy(cfg, 1); err == nil {
		t.Fatal("study accepted an unregistered backend")
	} else if !strings.Contains(err.Error(), "aelite") {
		t.Errorf("error does not list valid backends: %v", err)
	}
}

// TestCompareBeyondSevenHops: on a 5x5 mesh the longest minimal route
// (9 hops, taken by the transpose family's corner-to-corner traffic)
// overflows the paper's 32-bit header, so every backend must run at the
// wide layout the mesh needs; the study builds and verifies clean.
func TestCompareBeyondSevenHops(t *testing.T) {
	cfg := DefaultCompareConfig()
	cfg.Cols, cfg.Rows = 5, 5
	cfg.Conns = 16
	cfg.MeasureNs = 10000
	rep, err := CompareStudy(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Points {
		if p.Delivered == 0 {
			t.Errorf("%s/%s delivered nothing", p.Family, p.Backend)
		}
	}
}
