package trace

import (
	"errors"
	"fmt"
	"sync"

	"roadrunner/internal/transport"
)

// ErrPoolClosed is returned by Get after Close: the pool's evaluators
// are gone, and a caller holding a stale pool pointer (for example one
// the serving layer's bounded cache evicted) should look up or build a
// fresh pool instead.
var ErrPoolClosed = errors.New("trace: evaluator pool is closed")

// EvaluatorPool is a concurrency-safe checkout/return pool of
// Evaluators for one (trace, replay config) pair. An Evaluator is
// single-goroutine by contract, so concurrent callers — the serving
// layer's request workers, most prominently — each check one out with
// Get, run any number of Evaluate calls on it, and hand it back with
// Put. The pool keeps up to maxIdle warm evaluators between checkouts;
// a Get that finds the free list empty builds a fresh one, and a Put
// beyond the idle bound closes the returned evaluator instead of
// retaining it. Because Evaluate on a reused evaluator is pinned
// byte-identical to a fresh Replay (TestEvaluatorMatchesFreshReplay),
// checking out a warm evaluator versus building a cold one is
// observable only in wall clock, never in results.
type EvaluatorPool struct {
	tr  *Trace
	cfg ReplayConfig

	mu      sync.Mutex
	free    []*Evaluator
	maxIdle int
	closed  bool

	built  int64 // evaluators constructed over the pool's lifetime
	reused int64 // checkouts served from the warm free list
}

// NewEvaluatorPool validates the trace and config by building the first
// evaluator eagerly (so a bad pair fails here, not on some later
// request) and parks it on the free list. maxIdle bounds the warm
// evaluators retained between checkouts; values below 1 are raised
// to 1.
func NewEvaluatorPool(t *Trace, cfg ReplayConfig, maxIdle int) (*EvaluatorPool, error) {
	if maxIdle < 1 {
		maxIdle = 1
	}
	first, err := NewEvaluator(t, cfg)
	if err != nil {
		return nil, err
	}
	return &EvaluatorPool{
		tr:      t,
		cfg:     cfg,
		free:    []*Evaluator{first},
		maxIdle: maxIdle,
		built:   1,
	}, nil
}

// Trace returns the trace the pool's evaluators replay.
func (p *EvaluatorPool) Trace() *Trace { return p.tr }

// Get checks an evaluator out of the pool, building a fresh one when no
// warm evaluator is free. The caller owns it exclusively until Put.
func (p *EvaluatorPool) Get() (*Evaluator, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.reused++
		p.mu.Unlock()
		return e, nil
	}
	p.built++
	p.mu.Unlock()
	// Built outside the lock: evaluator construction is O(records) and
	// must not serialize other checkouts.
	return NewEvaluator(p.tr, p.cfg)
}

// Put returns a checked-out evaluator to the free list. Evaluators
// beyond the idle bound, evaluators whose pooled state became unusable
// (a failed Evaluate closes them), and returns after Close are closed
// instead of retained. Put(nil) is a no-op.
func (p *EvaluatorPool) Put(e *Evaluator) {
	if e == nil {
		return
	}
	p.mu.Lock()
	if p.closed || e.closed || len(p.free) >= p.maxIdle {
		p.mu.Unlock()
		e.Close()
		return
	}
	p.free = append(p.free, e)
	p.mu.Unlock()
}

// EvaluateMany replays every placement and returns the results in
// input order. Up to workers goroutines (workers < 1 means one) each
// check out an evaluator and claim placements in index order until
// none are left. Because Evaluate on any pooled evaluator is pinned
// byte-identical to a fresh Replay of the same placement, which
// evaluator handles which placement is observable only in wall clock:
// the returned results are identical at every worker count.
//
// A failed evaluation — an error, or a panic inside the replay, which
// closes that evaluator instead of crashing the process — stops the
// batch: no placement starts after it, and the error returned is the
// one of the lowest-index failed placement, the same at every worker
// count (claims run in index order, so every placement below a failure
// was already claimed and runs to the end).
func (p *EvaluatorPool) EvaluateMany(placements [][]transport.Endpoint, workers int) ([]*ReplayResult, error) {
	out := make([]*ReplayResult, len(placements))
	var (
		mu      sync.Mutex
		next    int
		failed  int
		failErr error
		wg      sync.WaitGroup
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next == len(placements) || failErr != nil {
			return -1
		}
		next++
		return next - 1
	}
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if failErr == nil || i < failed {
			failed, failErr = i, fmt.Errorf("trace: replay placement %d: %w", i, err)
		}
	}
	for w := 0; w < min(max(workers, 1), len(placements)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ev *Evaluator
			defer func() { p.Put(ev) }()
			for i := claim(); i >= 0; i = claim() {
				var err error
				if ev == nil {
					ev, err = p.Get()
				}
				if err == nil {
					out[i], err = evaluate(ev, placements[i])
				}
				if err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if failErr != nil {
		return nil, failErr
	}
	return out, nil
}

// evaluate replays one placement, turning a panic inside the replay
// into an error; the evaluator is closed, so Put discards it.
func evaluate(ev *Evaluator, places []transport.Endpoint) (r *ReplayResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			ev.Close()
			r, err = nil, fmt.Errorf("panic: %v", v)
		}
	}()
	return ev.Evaluate(places)
}

// Stats reports how many evaluators the pool built and how many
// checkouts it served warm.
func (p *EvaluatorPool) Stats() (built, reused int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.built, p.reused
}

// Close closes every idle evaluator and marks the pool closed: further
// Gets fail, and evaluators still checked out are closed as they come
// back through Put. Close is idempotent.
func (p *EvaluatorPool) Close() {
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.closed = true
	p.mu.Unlock()
	for _, e := range free {
		e.Close()
	}
}
