package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI runs rrsched in-process and returns its exit status and what
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

// TestRunAndSweep drives the facility simulator end to end: a
// model-only mix with its JSONL dump, the trace-pricing path with the
// placement-assisted allocator and a Gantt chart, and the full policy x
// allocator sweep, whose six points must all show positive utilization
// and a makespan no better than the oracle packer's.
func TestRunAndSweep(t *testing.T) {
	dir := t.TempDir()
	runJSONL, sweepJSONL := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "sweep.jsonl")
	for _, args := range [][]string{
		{"run", "-policy", "fcfs", "-alloc", "scattered", "-jobs", "16", "-trace=false", "-jsonl", runJSONL},
		{"run", "-policy", "easy", "-alloc", "assisted", "-jobs", "24", "-gantt"},
		{"sweep", "-jsonl", sweepJSONL},
	} {
		code, stdout, stderr := runCLI(t, args...)
		if code != 0 || stderr != "" || stdout == "" {
			t.Fatalf("rrsched %s: exit %d, stderr %q", strings.Join(args, " "), code, stderr)
		}
	}
	if lines := readLines(t, runJSONL); len(lines) != 17 {
		t.Errorf("run JSONL has %d lines, want 16 jobs + the summary", len(lines))
	}
	lines := readLines(t, sweepJSONL)
	if len(lines) != 6 {
		t.Fatalf("sweep JSONL has %d lines, want 6", len(lines))
	}
	for i, l := range lines {
		var p struct{ UtilizationFrac, OracleRatio float64 }
		if err := json.Unmarshal([]byte(l), &p); err != nil {
			t.Fatalf("sweep line %d: %v", i, err)
		}
		if p.UtilizationFrac <= 0 || p.OracleRatio < 1 {
			t.Errorf("sweep line %d: UtilizationFrac %v, OracleRatio %v", i, p.UtilizationFrac, p.OracleRatio)
		}
	}
}

// TestRejectsRunsPastTheClock: streams, schedules and flags that do not
// fit the int64-picosecond clock or a bounded chart, and unknown
// policies and allocators, exit non-zero with one stderr line instead
// of panicking or exhausting memory.
func TestRejectsRunsPastTheClock(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-jobs", "20000"}, 1},
		{[]string{"-mean-arrival", "1000000"}, 1},
		{[]string{"-mean-arrival", "1e12"}, 2},
		{[]string{"-width", "100000000000"}, 2},
		{[]string{"-policy", "lifo"}, 2},
		{[]string{"-alloc", "random"}, 2},
	} {
		args := append([]string{"run", "-trace=false"}, tc.args...)
		code, stdout, stderr := runCLI(t, args...)
		if code != tc.code || stdout != "" || strings.Count(stderr, "\n") != 1 {
			t.Errorf("rrsched %s: exit %d, stdout %q, stderr %q; want exit %d and one stderr line",
				strings.Join(args, " "), code, stdout, stderr, tc.code)
		}
	}
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	for s := bufio.NewScanner(f); s.Scan(); {
		lines = append(lines, s.Text())
	}
	return lines
}
