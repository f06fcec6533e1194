package orchestrator

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"roadrunner/internal/experiments"
	"roadrunner/internal/params"
	"roadrunner/internal/report"
)

// renderAll renders every artifact body in suite order; byte-identical
// output is the determinism contract between serial and parallel runs.
// Host checks measure the machine, not the model, and are left out.
func renderAll(t *testing.T, results []*Result) string {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		b.WriteString(r.Artifact.Body())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	// The whole registry, Expensive experiments included: the congestion
	// sweep spreads its independent runs across cores, so the double run
	// is affordable everywhere (GOMAXPROCS=1 runs them one at a time).
	exps := experiments.All()
	ctx := context.Background()
	serial, err := Run(ctx, exps, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(ctx, exps, Options{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderAll(t, serial), renderAll(t, parallel)
	if a != b {
		t.Fatal("parallel suite output differs from serial")
	}
	if len(serial) != len(exps) {
		t.Fatalf("got %d results, want %d", len(serial), len(exps))
	}
}

func TestResultsInSuiteOrder(t *testing.T) {
	exps := experiments.All()[:4]
	results, err := Run(context.Background(), exps, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.ID != exps[i].ID {
			t.Errorf("result %d = %s, want %s", i, r.ID, exps[i].ID)
		}
	}
}

// TestOnResultInSuiteOrder: a slow first experiment holds back the
// stream of the faster ones behind it, so the JSONL artifact has the
// same line order at every worker count.
func TestOnResultInSuiteOrder(t *testing.T) {
	exp := func(id string, d time.Duration) experiments.Experiment {
		return experiments.Experiment{ID: id, Title: id, PaperRef: "test",
			Run: func() *experiments.Artifact {
				time.Sleep(d)
				return &experiments.Artifact{ID: id}
			}}
	}
	exps := []experiments.Experiment{exp("slow", 200*time.Millisecond), exp("fast1", 0), exp("fast2", 0)}
	var got []string
	if _, err := Run(context.Background(), exps, Options{Workers: 3,
		OnResult: func(r *Result) { got = append(got, r.ID) }}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"slow", "fast1", "fast2"}; !slices.Equal(got, want) {
		t.Errorf("OnResult order %v, want %v", got, want)
	}
}

// TestOnResultPanicReachesCaller: a panic inside OnResult is re-raised
// on the caller's goroutine, at every worker count, instead of crashing
// the process from a worker or returning a results slice with holes;
// no result is passed to OnResult twice.
func TestOnResultPanicReachesCaller(t *testing.T) {
	exps := make([]experiments.Experiment, 6)
	for i := range exps {
		id := fmt.Sprintf("e%d", i)
		exps[i] = experiments.Experiment{ID: id, Title: id, PaperRef: "test",
			Run: func() *experiments.Artifact { return &experiments.Artifact{ID: id} }}
	}
	for _, workers := range []int{1, 2, 4} {
		seen := map[string]int{}
		v := func() (v any) {
			defer func() { v = recover() }()
			Run(context.Background(), exps, Options{Workers: workers, OnResult: func(r *Result) {
				seen[r.ID]++
				if r.ID == "e2" {
					panic("stream broke")
				}
			}})
			return nil
		}()
		if s, ok := v.(string); !ok || !strings.Contains(s, "panic: stream broke") {
			t.Errorf("workers=%d: Run panicked with %v, want the OnResult panic", workers, v)
		}
		for id, n := range seen {
			if n != 1 {
				t.Errorf("workers=%d: OnResult saw %s %d times", workers, id, n)
			}
		}
	}
}

func TestCacheHitSkipsRecomputeAndMatches(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exps := experiments.All()[:3]
	ctx := context.Background()

	cold, err := Run(ctx, exps, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cold {
		if r.CacheHit {
			t.Errorf("%s: unexpected cache hit on cold run", r.ID)
		}
	}
	hits, misses := cache.Stats()
	if hits != 0 || misses != int64(len(exps)) {
		t.Errorf("cold stats = %d hits / %d misses", hits, misses)
	}

	warm, err := Run(ctx, exps, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range warm {
		if !r.CacheHit {
			t.Errorf("%s: expected cache hit on warm run", r.ID)
		}
	}
	if renderAll(t, cold) != renderAll(t, warm) {
		t.Fatal("cached artifacts render differently from computed ones")
	}
}

// TestCacheNeverStoresHostChecks: a host check is a verdict on the
// machine that computed the artifact, so a cache hit must not serve it.
func TestCacheNeverStoresHostChecks(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	art := &experiments.Artifact{ID: "x", Title: "t", PaperRef: "r"}
	art.Checks.True("model", true, "")
	art.Host.True("fast enough", false, "wall clock")
	if err := cache.Put("k0", art); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Get("k0")
	if !ok {
		t.Fatal("stored artifact missed")
	}
	if len(got.Host.Items) != 0 || got.Body() != art.Body() {
		t.Errorf("cached artifact %q with host %v, want body %q and no host checks", got.Body(), got.Host, art.Body())
	}
}

func TestCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := experiments.All()[0]
	key := cache.Key(e.ID)
	if err := cache.Put(key, e.Run()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key[:2], key+".json")
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	results, err := Run(context.Background(), experiments.All()[:1],
		Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[0].CacheHit {
		t.Fatalf("recompute after corruption: err=%v hit=%v", results[0].Err, results[0].CacheHit)
	}
}

func TestCacheStoreFailureIsWarningNotError(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := experiments.All()[0]
	// Occupy the shard directory path with a plain file so Put's MkdirAll
	// fails even when running as root (permission bits would not).
	key := cache.Key(e.ID)
	if err := os.WriteFile(filepath.Join(dir, key[:2]), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	results, err := Run(context.Background(), []experiments.Experiment{e},
		Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Err != nil {
		t.Fatalf("store failure escalated to Err: %v", r.Err)
	}
	if r.Artifact == nil || !r.Artifact.Checks.AllOK() {
		t.Fatal("artifact lost on store failure")
	}
	if r.CacheErr == nil {
		t.Fatal("store failure not surfaced as CacheErr")
	}
	if len(Failed(results)) != 0 {
		t.Error("cache warning counted as suite failure")
	}
	if rec := RecordFor(r); rec.Status != "ok" || rec.CacheError == "" {
		t.Errorf("stream record = %+v", rec)
	}
}

func TestKeyIncludesBuildDigest(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if buildDigest() == "unknown" {
		t.Skip("executable not hashable here")
	}
	// The key must differ from a params-only digest: rebuilding changed
	// model code yields a different executable and must miss.
	h := sha256.New()
	h.Write([]byte("roadrunner-artifact-v1\ntable1\n"))
	h.Write([]byte(params.Fingerprint()))
	if cache.Key("table1") == hex.EncodeToString(h.Sum(nil)) {
		t.Fatal("cache key ignores the build digest")
	}
}

func TestKeyDependsOnExperimentID(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if cache.Key("table1") == cache.Key("table2") {
		t.Fatal("distinct experiments share a cache key")
	}
	if cache.Key("table1") != cache.Key("table1") {
		t.Fatal("cache key is not stable")
	}
}

func TestCancellationMidSuite(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exps := experiments.All()
	var completed int
	results, err := Run(ctx, exps, Options{
		Workers: 1,
		OnResult: func(r *Result) {
			completed++
			if completed == 2 {
				cancel() // cancel while the suite is mid-flight
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var ok, cancelled int
	for _, r := range results {
		switch {
		case r.Err == nil:
			ok++
		case errors.Is(r.Err, context.Canceled):
			cancelled++
		default:
			t.Errorf("%s: unexpected error %v", r.ID, r.Err)
		}
	}
	if ok == 0 || cancelled == 0 {
		t.Fatalf("ok=%d cancelled=%d: want some of both", ok, cancelled)
	}
	if ok+cancelled != len(exps) {
		t.Fatalf("accounted for %d of %d experiments", ok+cancelled, len(exps))
	}
}

func TestPerExperimentTimeout(t *testing.T) {
	slow := experiments.Experiment{
		ID: "slow", Title: "never finishes", PaperRef: "test",
		Run: func() *experiments.Artifact {
			time.Sleep(5 * time.Second)
			return &experiments.Artifact{ID: "slow"}
		},
	}
	results, err := Run(context.Background(), []experiments.Experiment{slow},
		Options{Workers: 1, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "exceeded") {
		t.Fatalf("err = %v, want timeout", results[0].Err)
	}
}

func TestPanickingExperimentIsIsolated(t *testing.T) {
	bad := experiments.Experiment{
		ID: "bad", Title: "panics", PaperRef: "test",
		Run: func() *experiments.Artifact { panic("boom") },
	}
	good := experiments.All()[0]
	results, err := Run(context.Background(),
		[]experiments.Experiment{bad, good}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panicked") {
		t.Fatalf("bad: err = %v, want panic error", results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("good experiment poisoned by neighbour: %v", results[1].Err)
	}
	if len(Failed(results)) != 1 {
		t.Errorf("Failed = %v", Failed(results))
	}
}

func TestStreamerEmitsJSONLAndCSV(t *testing.T) {
	var buf bytes.Buffer
	csvDir := t.TempDir()
	s := NewStreamer(&buf, csvDir)
	exps := experiments.All()[:2]
	results, err := Run(context.Background(), exps,
		Options{Workers: 2, OnResult: s.OnResult})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(exps) {
		t.Fatalf("%d JSONL lines, want %d", len(lines), len(exps))
	}
	seen := map[string]bool{}
	for _, line := range lines {
		var rec StreamRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec.Status != "ok" {
			t.Errorf("%s: status %s (%s)", rec.ID, rec.Status, rec.Error)
		}
		seen[rec.ID] = true
	}
	nCSV := 0
	entries, err := os.ReadDir(csvDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".csv") {
			nCSV++
		}
	}
	wantCSV := 1 // suite-summary.csv
	for _, r := range results {
		if !seen[r.ID] {
			t.Errorf("no JSONL record for %s", r.ID)
		}
		wantCSV += len(r.Artifact.Tables) + len(r.Artifact.Figures)
	}
	if nCSV != wantCSV {
		t.Errorf("%d CSV files, want %d", nCSV, wantCSV)
	}

	// The summary carries one row per experiment with the wall-clock
	// duration and cache-hit flag, sorted by ID.
	sum, err := os.ReadFile(filepath.Join(csvDir, "suite-summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	sumLines := strings.Split(strings.TrimSpace(string(sum)), "\n")
	if len(sumLines) != len(exps)+1 {
		t.Fatalf("summary rows = %d, want %d + header:\n%s", len(sumLines)-1, len(exps), sum)
	}
	if !strings.Contains(sumLines[0], "elapsed_ms") || !strings.Contains(sumLines[0], "cache_hit") {
		t.Errorf("summary header missing duration/cache columns: %s", sumLines[0])
	}
	wantIDs := []string{exps[0].ID, exps[1].ID}
	sort.Strings(wantIDs)
	for i, id := range wantIDs {
		fields := strings.Split(sumLines[i+1], ",")
		if fields[0] != id {
			t.Errorf("summary row %d = %s, want %s (sorted)", i, fields[0], id)
		}
		if fields[2] != "false" {
			t.Errorf("%s: cache_hit = %q, want false", id, fields[2])
		}
		if ms, err := strconv.ParseFloat(fields[3], 64); err != nil || ms < 0 {
			t.Errorf("%s: elapsed_ms = %q", id, fields[3])
		}
	}
}

func TestStreamerSummaryRecordsCacheHits(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exps := experiments.All()[:1]
	if _, err := Run(context.Background(), exps, Options{Workers: 1, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	csvDir := t.TempDir()
	s := NewStreamer(nil, csvDir)
	if _, err := Run(context.Background(), exps,
		Options{Workers: 1, Cache: cache, OnResult: s.OnResult}); err != nil {
		t.Fatal(err)
	}
	sum, err := os.ReadFile(filepath.Join(csvDir, "suite-summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(sum)), "\n")
	if len(rows) != 2 {
		t.Fatalf("summary:\n%s", sum)
	}
	if fields := strings.Split(rows[1], ","); fields[2] != "true" {
		t.Errorf("cache_hit = %q, want true", fields[2])
	}
}

func TestJSONLEmitterConcurrentLinesIntact(t *testing.T) {
	var buf bytes.Buffer
	em := report.NewJSONLEmitter(&buf)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				if err := em.Emit(map[string]int{"g": g, "i": i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("%d lines, want 400", len(lines))
	}
	for _, line := range lines {
		var m map[string]int
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("interleaved line %q", line)
		}
	}
}
