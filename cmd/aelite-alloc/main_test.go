package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goldenPath holds the SHA-256 digest of aelite-alloc's stdout for each
// case of allocCases, plus each case's exit code.
const goldenPath = "testdata/golden.sha256"

// allocCases are the invocations whose printed allocation must never
// drift: the aelite TDM tables in two clocking modes, the routerless ring
// allocation (also on a 5x5 scenario), a generated 8x8 scenario on the
// wide header layout, and a mesh too large for any runnable header.
var allocCases = []struct {
	name string
	args []string
}{
	{"aelite-synchronous-tables", []string{"-random", "20", "-tables"}},
	{"aelite-mesochronous-tables", []string{"-random", "20", "-mode", "mesochronous", "-tables"}},
	{"routerless", []string{"-random", "20", "-backend", "routerless"}},
	{"routerless-scenario-5x5", []string{"-scenario", "uniform", "-conns", "8", "-cols", "5", "-rows", "5", "-backend", "routerless"}},
	{"scenario-8x8", []string{"-scenario", "uniform", "-conns", "40", "-cols", "8", "-rows", "8"}},
	{"scenario-9x9-too-wide", []string{"-scenario", "uniform", "-conns", "8", "-cols", "9", "-rows", "9"}},
}

// TestGoldenOutputs builds the command and pins its stdout byte for byte
// on every case; on drift it logs the full "got" table.
func TestGoldenOutputs(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "aelite-alloc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	want := map[string]bool{}
	gf, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(gf)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" && !strings.HasPrefix(l, "#") {
			want[l] = true
		}
	}
	gf.Close()

	var got []string
	for _, c := range allocCases {
		out, err := exec.Command(bin, c.args...).Output()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(out)
		got = append(got,
			fmt.Sprintf("%s exit %d", c.name, code),
			fmt.Sprintf("%s stdout %s", c.name, hex.EncodeToString(sum[:])))
	}
	drift := len(got) != len(want)
	for _, l := range got {
		if !want[l] {
			drift = true
			t.Errorf("drift: %s", l)
		}
	}
	if drift {
		t.Errorf("%d golden lines, cases produced %d; got:\n%s", len(want), len(got), strings.Join(got, "\n"))
	}
}
