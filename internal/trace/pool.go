package trace

import (
	"errors"
	"fmt"
	"sync"

	"roadrunner/internal/batch"
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
// input order. The placements run on batch.Run (workers < 1 means
// GOMAXPROCS): each of its goroutines checks out one evaluator on its
// first claim and keeps it for the batch. Because Evaluate on any
// pooled evaluator is pinned byte-identical to a fresh Replay of the
// same placement, which evaluator handles which placement is observable
// only in wall clock: the returned results are identical at every
// worker count.
//
// A failed evaluation — an error, or a panic inside the replay, which
// comes back as an error instead of crashing the process — stops the
// batch, and the error returned is the one of the lowest-index failed
// placement, the same at every worker count. A failed batch closes
// every evaluator it checked out, so none whose replay broke off goes
// back to the pool warm.
func (p *EvaluatorPool) EvaluateMany(placements [][]transport.Endpoint, workers int) ([]*ReplayResult, error) {
	out := make([]*ReplayResult, len(placements))
	evs := make([]*Evaluator, len(placements)) // by goroutine number, which is below len(placements)
	i, err := batch.Run(len(placements), workers, func(w, i int) (err error) {
		if evs[w] == nil {
			if evs[w], err = p.Get(); err != nil {
				return err
			}
		}
		out[i], err = evs[w].Evaluate(placements[i])
		return err
	})
	for _, ev := range evs {
		if ev != nil && err != nil {
			ev.Close()
		}
		p.Put(ev)
	}
	if err != nil {
		return nil, fmt.Errorf("trace: replay placement %d: %w", i, err)
	}
	return out, nil
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
