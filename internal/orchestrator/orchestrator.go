// Package orchestrator runs the registered experiment suite as a parallel
// sweep: batch.Run spreads the experiments over GOMAXPROCS goroutines,
// one deterministic DES engine per experiment, with context cancellation,
// per-experiment timeouts, a content-addressed artifact cache keyed by the
// model-input fingerprint, and streaming structured results.
//
// The paper's evaluation is a set of independent tables and figures, so
// the suite is embarrassingly parallel; every experiment builds its own
// models and engine, shares no mutable state, and produces an artifact
// whose body (tables, figures, checks) is a pure function of the
// calibrated inputs in internal/params. That purity is what makes both
// the parallelism and the cache sound: a parallel run's bodies are
// byte-identical to a serial run's, and a cache hit's body is
// byte-identical to a recompute's. An artifact's host checks (wall-clock
// speed floors) are measured on the machine and are not pure: the cache
// never stores them, and the stream counts only the body's checks.
package orchestrator

import (
	"context"
	"fmt"
	"sync"
	"time"

	"roadrunner/internal/batch"
	"roadrunner/internal/experiments"
)

// Options configures a suite run. The zero value runs every worker the
// machine has, with no timeout, no cache and no streaming.
type Options struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Timeout bounds each experiment's execution; 0 means none. A timed
	// out experiment's goroutine is abandoned (the DES engine offers no
	// preemption point) and its result carries the timeout error.
	Timeout time.Duration
	// Cache, when non-nil, short-circuits experiments whose artifact for
	// the current model-input fingerprint is already stored, and stores
	// freshly computed artifacts.
	Cache *Cache
	// OnResult, when non-nil, is invoked once per experiment in suite
	// order, as soon as that result and every one before it are complete,
	// so a stream built from it is the same at every worker count. Calls
	// are serialized; the callback must not block for long or it stalls
	// the pool.
	OnResult func(*Result)
}

// Result is the outcome of one experiment in a suite run.
type Result struct {
	ID       string
	Title    string
	PaperRef string
	// Artifact is the experiment's output; nil if Err is set.
	Artifact *experiments.Artifact
	// Err is set when the experiment did not produce an artifact: it
	// panicked, timed out, or the run was cancelled before it started.
	// Check failures are not errors here; see Artifact.Checks.
	Err error
	// CacheHit reports that Artifact was loaded rather than computed.
	CacheHit bool
	// CacheErr reports a failure to store the freshly computed Artifact
	// (full disk, permissions). The artifact itself is good; this is an
	// infrastructure warning, never a suite failure.
	CacheErr error
	// Elapsed is the wall-clock cost of producing (or loading) Artifact.
	Elapsed time.Duration
}

// Run executes the given experiments on batch.Run and returns their
// results in input order — the deterministic order every consumer
// (CLI, tests, CI) sees regardless of scheduling. Every experiment runs:
// the returned error is non-nil only when ctx was cancelled, and
// per-experiment failures are reported on the individual results. A
// panic inside Options.OnResult is re-raised on the caller's goroutine
// once the running experiments return.
//
// Host hooks run after the whole batch, one at a time and in suite
// order, for fresh and cached artifacts alike: a wall-clock floor then
// times this machine while no experiment loads it. OnResult has seen
// every result by then, so the stream never carries host checks.
func Run(ctx context.Context, exps []experiments.Experiment, opts Options) ([]*Result, error) {
	results := make([]*Result, len(exps))
	var (
		emit    sync.Mutex
		emitted int // results[:emitted] went to OnResult
	)
	if _, err := batch.Run(len(exps), opts.Workers, func(_, i int) error {
		r := runOne(ctx, exps[i], opts)
		emit.Lock()
		defer emit.Unlock()
		results[i] = r
		for emitted < len(results) && results[emitted] != nil {
			emitted++ // before the call: a result that panicked OnResult is not sent again
			if opts.OnResult != nil {
				opts.OnResult(results[emitted-1])
			}
		}
		return nil
	}); err != nil {
		panic(fmt.Sprintf("orchestrator: %v", err))
	}
	for i, r := range results {
		if exps[i].Host != nil && r.Artifact != nil && ctx.Err() == nil {
			r.Artifact.Host = exps[i].Host()
		}
	}
	return results, ctx.Err()
}

// RunAll runs the full registered suite.
func RunAll(ctx context.Context, opts Options) ([]*Result, error) {
	return Run(ctx, experiments.All(), opts)
}

// runOne produces the result for a single experiment: cancellation check,
// cache probe, bounded execution, cache fill.
func runOne(ctx context.Context, e experiments.Experiment, opts Options) *Result {
	r := &Result{ID: e.ID, Title: e.Title, PaperRef: e.PaperRef}
	start := time.Now()
	defer func() { r.Elapsed = time.Since(start) }()

	if err := ctx.Err(); err != nil {
		r.Err = err
		return r
	}
	var key string
	if opts.Cache != nil {
		key = opts.Cache.Key(e.ID)
		if art, ok := opts.Cache.Get(key); ok {
			r.Artifact, r.CacheHit = art, true
			return r
		}
	}
	art, err := execute(ctx, e, opts.Timeout)
	if err != nil {
		r.Err = err
		return r
	}
	r.Artifact = art
	if opts.Cache != nil {
		// A failed store must not fail the run; the artifact itself is
		// good. Surface the problem as a warning on the result.
		r.CacheErr = opts.Cache.Put(key, art)
	}
	return r
}

// execute runs e.Run in its own goroutine so the caller can enforce the
// timeout and cancellation. Experiments cannot be preempted mid-run (the
// DES engine runs to completion), so on timeout or cancel the goroutine
// is abandoned; it finishes into a buffered channel and is collected.
func execute(ctx context.Context, e experiments.Experiment, timeout time.Duration) (*experiments.Artifact, error) {
	type outcome struct {
		art *experiments.Artifact
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				done <- outcome{err: fmt.Errorf("orchestrator: experiment %s panicked: %v", e.ID, rec)}
			}
		}()
		done <- outcome{art: e.Run()}
	}()

	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case o := <-done:
		return o.art, o.err
	case <-expired:
		return nil, fmt.Errorf("orchestrator: experiment %s exceeded %v", e.ID, timeout)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Failed returns the results that did not produce a passing artifact:
// run errors, check failures and host check failures all count.
func Failed(results []*Result) []*Result {
	var out []*Result
	for _, r := range results {
		if r.Err != nil || r.Artifact == nil || !r.Artifact.Checks.AllOK() || !r.Artifact.Host.AllOK() {
			out = append(out, r)
		}
	}
	return out
}
