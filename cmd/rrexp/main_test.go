package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rrexp calls run in process and returns its exit status and output.
func rrexp(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestHostSectionOffTheRecord runs surrogate-xval, whose speed floor is
// a host check: the section prints on stderr, the exit status follows
// its verdict, and neither stdout nor the JSONL record carries it.
func TestHostSectionOffTheRecord(t *testing.T) {
	jsonl := filepath.Join(t.TempDir(), "out.jsonl")
	code, stdout, stderr := rrexp(t, "-run", "surrogate-xval", "-jsonl", jsonl)

	const floor = "faster than the pooled DES evaluates"
	_, host, ok := strings.Cut(stderr, "surrogate-xval host checks (wall clock, not cached):\n")
	if !ok {
		t.Fatalf("no host section on stderr:\n%s", stderr)
	}
	line, _, _ := strings.Cut(host, "\n")
	if !strings.Contains(line, floor) {
		t.Fatalf("host section does not hold the speed floor: %q", line)
	}
	passed := strings.HasPrefix(line, "[PASS] ")
	if !passed && !strings.HasPrefix(line, "[FAIL] ") {
		t.Fatalf("host check line %q has no verdict", line)
	}
	if (code == 0) != passed {
		t.Errorf("exit %d with host check %q", code, line)
	}
	if strings.Contains(stdout, floor) || !strings.Contains(stdout, "### surrogate-xval") {
		t.Errorf("stdout must hold the artifact body without the host check:\n%s", stdout)
	}

	data, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(data), &rec); err != nil {
		t.Fatalf("JSONL %q: %v", data, err)
	}
	for k := range rec {
		if strings.Contains(k, "host") {
			t.Errorf("JSONL carries host field %q", k)
		}
	}
	// The record counts the body's check lines only.
	body := strings.Count(stdout, "\n[PASS] ") + strings.Count(stdout, "\n[FAIL] ")
	if rec["status"] != "ok" || rec["checks"] != float64(body) || rec["failed_checks"] != nil {
		t.Errorf("JSONL record %s, want status ok and %d checks", data, body)
	}
}

// TestTable1MatchesRecord pins rrexp's stdout for an experiment without
// host checks to testdata/table1.stdout, captured before the host
// section existed: moving host checks out of stdout leaves such an
// experiment's output byte for byte as it was.
func TestTable1MatchesRecord(t *testing.T) {
	code, stdout, stderr := rrexp(t, "-run", "table1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	want, err := os.ReadFile("testdata/table1.stdout")
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("stdout differs from testdata/table1.stdout:\n%s", stdout)
	}
}

func TestBadFlagExits2(t *testing.T) {
	if code, _, stderr := rrexp(t, "-workers", "x"); code != 2 || stderr == "" {
		t.Errorf("exit %d, stderr %q", code, stderr)
	}
	if code, _, _ := rrexp(t, "-run", "nope"); code != 2 {
		t.Errorf("unknown experiment: exit %d", code)
	}
}
