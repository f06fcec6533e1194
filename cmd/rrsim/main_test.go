package main

import (
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"roadrunner/internal/fabric"
)

// runCLI runs rrsim in-process and returns its exit status and what it
// printed on stdout and stderr.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	errR, errW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	outC, errC := make(chan string), make(chan string)
	go func() { b, _ := io.ReadAll(outR); outC <- string(b) }()
	go func() { b, _ := io.ReadAll(errR); errC <- string(b) }()
	saveOut, saveErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outW, errW
	code = run(args)
	os.Stdout, os.Stderr = saveOut, saveErr
	outW.Close()
	errW.Close()
	return code, <-outC, <-errC
}

// TestHopQueryRejectsNodesOutsideFabric: node ids beyond either end of
// the machine exit 2 with one line instead of panicking in the fabric.
func TestHopQueryRejectsNodesOutsideFabric(t *testing.T) {
	for _, args := range [][]string{{"0", "3060"}, {"0", "-1"}, {"-topology", "torus", "3060", "0"}} {
		code, stdout, stderr := runCLI(t, args...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 {
			t.Errorf("rrsim %s: exit %d, stdout %q, stderr %q; want exit 2 and one stderr line",
				strings.Join(args, " "), code, stdout, stderr)
		}
	}
	if code, stdout, _ := runCLI(t, "0", "3059"); code != 0 || !strings.Contains(stdout, "crossbar hops") {
		t.Errorf("rrsim 0 3059: exit %d, output %q", code, stdout)
	}
}

// TestDESPlacementReplays drives -des, which adds the independent
// placement replays of the captured schedule on GOMAXPROCS workers.
func TestDESPlacementReplays(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	code, stdout, stderr := runCLI(t, "-des", "-ranks", "16")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"placement replays: 3 on 2 workers", "  block ", "  strided ", "  packed "} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}

// TestDESFollowsTopology: the -des replays run on the -topology fabric,
// and an unknown topology exits 2 with one stderr line.
func TestDESFollowsTopology(t *testing.T) {
	if code, stdout, stderr := runCLI(t, "-topology", "torus", "-des", "-ranks", "16"); code != 0 ||
		!strings.Contains(stdout, "placement replays: 3 on ") {
		t.Errorf("-topology torus -des: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if code, stdout, stderr := runCLI(t, "-topology", "bogus", "-des"); code != 2 || stdout != "" ||
		strings.Count(stderr, "\n") != 1 {
		t.Errorf("-topology bogus: exit %d, stdout %q, stderr %q; want exit 2 and one stderr line", code, stdout, stderr)
	}
}

// TestEveryTopologyRuns is the per-topology smoke: a hop query, the
// census and audit, and a congested 64-rank alltoall exit 0 on every
// registered -topology value.
func TestEveryTopologyRuns(t *testing.T) {
	for _, topo := range fabric.Topologies() {
		for _, args := range [][]string{
			{"-topology", topo, "0", "2000"},
			{"-topology", topo, "-census", "-audit"},
			{"-topology", topo, "-collective", "alltoall-pairwise", "-ranks", "64", "-msg", "4096"},
		} {
			if code, _, stderr := runCLI(t, args...); code != 0 {
				t.Errorf("rrsim %s: exit %d: %s", strings.Join(args, " "), code, stderr)
			}
		}
	}
}

// TestFatTreeTopologyMatchesDefault: -topology fattree prints what the
// flagless run prints, once the host-throughput lines are dropped.
func TestFatTreeTopologyMatchesDefault(t *testing.T) {
	args := []string{"-census", "-audit", "-collective", "alltoall-pairwise", "-ranks", "64", "-msg", "4096"}
	code, def, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("default: exit %d: %s", code, stderr)
	}
	code, ft, stderr := runCLI(t, append([]string{"-topology", "fattree"}, args...)...)
	if code != 0 {
		t.Fatalf("-topology fattree: exit %d: %s", code, stderr)
	}
	if a, b := dropHostLines(def), dropHostLines(ft); a == "" || a != b {
		t.Errorf("-topology fattree output differs from the default:\n%s\n---\n%s", b, a)
	}
}

// dropHostLines removes the lines that report host wall-clock
// throughput, which differ from run to run.
func dropHostLines(s string) string {
	var kept []string
	for _, l := range strings.SplitAfter(s, "\n") {
		if !strings.Contains(l, "events/s host") {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "")
}
