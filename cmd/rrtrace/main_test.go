package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/trace"
	"roadrunner/internal/units"
)

// runCLI runs rrtrace in-process and returns its exit status and what
// it printed on stdout and stderr.
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

// smallTrace captures a 16-rank Sweep3D trace into a temporary file.
func smallTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t16.jsonl")
	if code, _, stderr := runCLI(t, "capture", "-px", "4", "-py", "4", "-k", "20", "-o", path); code != 0 {
		t.Fatalf("capture exited %d: %s", code, stderr)
	}
	return path
}

// TestBadFlagValuesExit2 runs every flag value the placement generators
// and the census print used to panic on: each must exit 2 with one line
// on stderr. A trace too wide for the fabric must exit 1 the same way.
func TestBadFlagValuesExit2(t *testing.T) {
	tr := smallTrace(t)
	cases := [][]string{
		{"replay", "-i", tr, "-placement", "strided", "-stride", "0"},
		{"optimize", "-i", tr, "-stride", "0"},
		{"replay", "-i", tr, "-placement", "packed", "-per-node", "5"},
		{"replay", "-i", tr, "-placement", "all", "-per-node", "0"},
		{"optimize", "-i", tr, "-per-node", "7"},
		{"replay", "-i", tr, "-toplinks", "-1"},
		{"replay", "-i", tr, "-core", "7"},
		{"replay", "-i", tr, "-placement", "packed", "-core", "-1"},
		{"optimize", "-i", tr, "-toplinks", "-1"},
	}
	for _, args := range cases {
		code, stdout, stderr := runCLI(t, args...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 {
			t.Errorf("rrtrace %s: exit %d, stdout %q, stderr %q; want exit 2 and one stderr line",
				strings.Join(args, " "), code, stdout, stderr)
		}
	}

	// A trace with more ranks than the machine has nodes is a run error.
	rec := trace.NewRecorder("wide", "test", 3061)
	for r := 0; r < 3061; r++ {
		rec.Compute(r, units.Microsecond, 0)
	}
	wide, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wide.jsonl")
	if err := trace.Save(path, wide); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"replay", "-i", path}, {"optimize", "-i", path}} {
		code, _, stderr := runCLI(t, args...)
		if code != 1 || strings.Count(stderr, "\n") != 1 {
			t.Errorf("rrtrace %s on a 3061-rank trace: exit %d, stderr %q; want exit 1 and one line",
				args[0], code, stderr)
		}
	}
}

// TestReplayAllMatchesSingleReplays drives the batch path: -placement
// all prints the same per-placement lines at one and at two workers,
// and each makespan equals that placement's single replay.
func TestReplayAllMatchesSingleReplays(t *testing.T) {
	tr := smallTrace(t)
	lines := func(procs int) []string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		code, stdout, stderr := runCLI(t, "replay", "-i", tr, "-placement", "all")
		if code != 0 {
			t.Fatalf("GOMAXPROCS=%d: exit %d: %s", procs, code, stderr)
		}
		out := strings.Split(strings.TrimSpace(stdout), "\n")
		if !strings.Contains(out[0], "wall clock") {
			t.Fatalf("GOMAXPROCS=%d: first line %q is not the wall-clock line", procs, out[0])
		}
		return out[1:]
	}
	serial, parallel := lines(1), lines(2)
	if strings.Join(serial, "\n") != strings.Join(parallel, "\n") {
		t.Errorf("per-placement lines differ:\nGOMAXPROCS=1:\n%s\nGOMAXPROCS=2:\n%s",
			strings.Join(serial, "\n"), strings.Join(parallel, "\n"))
	}
	batch := regexp.MustCompile(`^  (\w+)\s+(\S+) simulated, .* events$`)
	single := regexp.MustCompile(`: (\S+) simulated`)
	found := 0
	for _, l := range serial {
		m := batch.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		found++
		code, stdout, stderr := runCLI(t, "replay", "-i", tr, "-placement", m[1])
		if code != 0 {
			t.Fatalf("replay -placement %s: exit %d: %s", m[1], code, stderr)
		}
		if s := single.FindStringSubmatch(stdout); s == nil || s[1] != m[2] {
			t.Errorf("%s: batch makespan %s, single replay printed %q", m[1], m[2], stdout)
		}
	}
	if found != 3 {
		t.Errorf("%d placement lines in\n%s", found, strings.Join(serial, "\n"))
	}
}

// TestReplayCongestionOffPrintsNoCensus: off is the zero Policy, the
// infinite-capacity fabric, which keeps no link state, so neither a
// replay nor any placement of -placement all prints a census line.
func TestReplayCongestionOffPrintsNoCensus(t *testing.T) {
	tr := smallTrace(t)
	for _, args := range [][]string{
		{"replay", "-i", tr, "-congestion=off"},
		{"replay", "-i", tr, "-congestion=off", "-placement", "all"},
	} {
		code, stdout, stderr := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		if !strings.Contains(stdout, " simulated") {
			t.Errorf("%v: no simulated time in\n%s", args, stdout)
		}
		if strings.Contains(stdout, "census:") {
			t.Errorf("%v: census line with congestion off in\n%s", args, stdout)
		}
	}
}

// TestReplayEveryTopology: a strided replay of the 4×4 capture exits 0
// on every registered -topology, and -topology fattree prints what the
// flagless replay prints, once the host-throughput lines are dropped.
func TestReplayEveryTopology(t *testing.T) {
	tr := smallTrace(t)
	for _, topo := range fabric.Topologies() {
		if code, _, stderr := runCLI(t, "replay", "-i", tr, "-topology", topo, "-placement", "strided"); code != 0 {
			t.Errorf("replay -topology %s: exit %d: %s", topo, code, stderr)
		}
	}
	_, def, _ := runCLI(t, "replay", "-i", tr, "-placement", "strided")
	_, ft, _ := runCLI(t, "replay", "-i", tr, "-topology", "fattree", "-placement", "strided")
	if a, b := dropHostLines(def), dropHostLines(ft); a == "" || a != b {
		t.Errorf("-topology fattree replay differs from the default:\n%s\n---\n%s", b, a)
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

// TestCLIFlow runs the inspect, replay and optimize steps of the
// capture → replay → optimize flow on the 4×4 capture, the optimize
// runs at a small search budget: each must exit 0, and a congested
// replay or an optimize run must print its census, and an optimize run
// its verified winner.
func TestCLIFlow(t *testing.T) {
	tr := smallTrace(t)
	budget := []string{"-seed", "1", "-greedy-rounds", "2", "-greedy-batch", "6",
		"-anneal-rounds", "2", "-anneal-batch", "6", "-mapping", "4"}
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"inspect", "-i", tr}, []string{"16 ranks"}},
		{[]string{"inspect", "-spec"}, []string{"docs/trace-format.md"}},
		{[]string{"replay", "-i", tr, "-placement", "strided", "-toplinks", "5"}, []string{"census:"}},
		{[]string{"replay", "-i", tr, "-congestion=off", "-skip-compute"}, []string{" simulated"}},
		{append([]string{"optimize", "-i", tr}, budget...),
			[]string{"winner verified", "census:", "first 4 assignments"}},
		{append([]string{"optimize", "-i", tr, "-surrogate", "-screen-factor", "4", "-anchors", "12"}, budget...),
			[]string{"surrogate prices", "winner verified", "census:"}},
	}
	for _, tc := range cases {
		code, stdout, stderr := runCLI(t, tc.args...)
		if code != 0 {
			t.Errorf("rrtrace %s: exit %d: %s", strings.Join(tc.args, " "), code, stderr)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(stdout, w) {
				t.Errorf("rrtrace %s: no %q in\n%s", strings.Join(tc.args, " "), w, stdout)
			}
		}
	}
}
