package trace

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// TestEvaluatorPoolCheckoutReturn pins the pool contract: a warm
// checkout returns results byte-identical to a cold evaluator, the free
// list is bounded by maxIdle, and concurrent checkouts each own their
// evaluator exclusively (the race detector would catch sharing).
func TestEvaluatorPoolCheckoutReturn(t *testing.T) {
	fab := fabric.NewScaled(1)
	tr := meshTrace(t, 16, 96*units.KB)
	cfg := ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Policy: transport.Congested()}
	places := evalPlacements(fab, 16)

	pool, err := NewEvaluatorPool(tr, cfg, 2)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	defer pool.Close()

	want, err := Replay(tr, ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(),
		Policy: transport.Congested(), Places: places[0]})
	if err != nil {
		t.Fatalf("fresh replay: %v", err)
	}

	// Serial checkout/return cycles hit the warm evaluator and agree
	// with the fresh replay.
	for i := 0; i < 3; i++ {
		e, err := pool.Get()
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		got, err := e.Evaluate(places[0])
		if err != nil {
			t.Fatalf("evaluate %d: %v", i, err)
		}
		if got.Time != want.Time {
			t.Errorf("checkout %d: makespan %v, fresh replay %v", i, got.Time, want.Time)
		}
		pool.Put(e)
	}
	if built, reused := pool.Stats(); built != 1 || reused != 3 {
		t.Errorf("serial cycles: built %d reused %d, want 1 and 3", built, reused)
	}

	// Concurrent checkouts: every worker gets an exclusive evaluator
	// and every result matches.
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	times := make([]units.Time, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e, err := pool.Get()
			if err != nil {
				errs[w] = err
				return
			}
			defer pool.Put(e)
			res, err := e.Evaluate(places[0])
			if err != nil {
				errs[w] = err
				return
			}
			times[w] = res.Time
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if times[w] != want.Time {
			t.Errorf("worker %d: makespan %v, want %v", w, times[w], want.Time)
		}
	}

	// The free list is capped at maxIdle; surplus returns were closed,
	// not leaked into the pool.
	e1, _ := pool.Get()
	e2, _ := pool.Get()
	e3, err := pool.Get()
	if err != nil {
		t.Fatalf("get past idle bound: %v", err)
	}
	pool.Put(e1)
	pool.Put(e2)
	pool.Put(e3)
	pool.mu.Lock()
	idle := len(pool.free)
	pool.mu.Unlock()
	if idle != 2 {
		t.Errorf("idle evaluators after returning 3 with maxIdle 2: %d", idle)
	}
}

// TestEvaluatorPoolClose pins the shutdown contract: Get fails after
// Close, and a straggler returned afterwards is closed, not retained.
func TestEvaluatorPoolClose(t *testing.T) {
	fab := fabric.NewScaled(1)
	tr := meshTrace(t, 4, 4*units.KB)
	cfg := ReplayConfig{Fabric: fab, Profile: ib.OpenMPI()}
	pool, err := NewEvaluatorPool(tr, cfg, 4)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	straggler, err := pool.Get()
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	pool.Close()
	if _, err := pool.Get(); err == nil {
		t.Error("Get after Close succeeded")
	}
	pool.Put(straggler)
	if !straggler.closed {
		t.Error("straggler returned after Close was not closed")
	}
	pool.Close() // idempotent
}

// TestEvaluatorPoolClosedRetry pins the checkout-retry contract the
// serving layer builds on (serve.checkout): Get on a closed pool fails
// with an error that is errors.Is-identifiable as ErrPoolClosed — not
// some generic failure — so a caller holding a stale pool pointer can
// distinguish "this pool was evicted, build a fresh one and retry"
// from a genuinely broken request.
func TestEvaluatorPoolClosedRetry(t *testing.T) {
	fab := fabric.NewScaled(1)
	tr := meshTrace(t, 4, 4*units.KB)
	cfg := ReplayConfig{Fabric: fab, Profile: ib.OpenMPI()}

	stale, err := NewEvaluatorPool(tr, cfg, 2)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	stale.Close()
	if _, err := stale.Get(); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Get on closed pool: %v, want errors.Is ErrPoolClosed", err)
	}

	// The retry loop itself: each attempt that lands on a closed pool
	// rebuilds; a fresh pool satisfies the checkout on the next attempt.
	pools := []*EvaluatorPool{stale}
	lookup := func() (*EvaluatorPool, error) {
		return pools[len(pools)-1], nil
	}
	rebuild := func() error {
		p, err := NewEvaluatorPool(tr, cfg, 2)
		if err != nil {
			return err
		}
		pools = append(pools, p)
		return nil
	}
	var ev *Evaluator
	attempts := 0
	for {
		attempts++
		p, err := lookup()
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		ev, err = p.Get()
		if err == nil {
			defer p.Put(ev)
			break
		}
		if !errors.Is(err, ErrPoolClosed) || attempts >= 8 {
			t.Fatalf("checkout attempt %d: %v", attempts, err)
		}
		if err := rebuild(); err != nil {
			t.Fatalf("rebuild: %v", err)
		}
	}
	if attempts != 2 {
		t.Errorf("checkout took %d attempts, want 2 (stale miss + fresh hit)", attempts)
	}
	places := evalPlacements(fab, 4)
	if _, err := ev.Evaluate(places[0]); err != nil {
		t.Fatalf("evaluate on retried checkout: %v", err)
	}
	for _, p := range pools {
		p.Close()
	}

	// A pool closed concurrently with checkouts never hands out a dead
	// evaluator: every Get either succeeds with a usable evaluator or
	// fails identifiably as ErrPoolClosed.
	race, err := NewEvaluatorPool(tr, cfg, 4)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 4; i++ {
				e, err := race.Get()
				if err != nil {
					if !errors.Is(err, ErrPoolClosed) {
						errs[w] = err
					}
					return
				}
				if _, err := e.Evaluate(places[0]); err != nil {
					errs[w] = err
					return
				}
				race.Put(e)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		race.Close()
	}()
	close(start)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d under concurrent close: %v", w, err)
		}
	}
}

// TestEvaluateManyMatchesSerialReplays pins the batch contract:
// EvaluateMany over more placements than workers returns, at every
// worker count, exactly the results a serial loop of fresh Replay calls
// produces, in placement order.
func TestEvaluateManyMatchesSerialReplays(t *testing.T) {
	fab := fabric.NewScaled(1)
	tr := meshTrace(t, 16, 96*units.KB)
	placements := append(evalPlacements(fab, 16), evalPlacements(fab, 16)...)
	placements = append(placements, evalPlacements(fab, 16)...)
	cfg := ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(),
		Policy: transport.Congested(), Observe: ObserveAll}

	want := make([]*ReplayResult, len(placements))
	for i, places := range placements {
		one := cfg
		one.Places = places
		r, err := Replay(tr, one)
		if err != nil {
			t.Fatalf("fresh replay %d: %v", i, err)
		}
		want[i] = r
	}
	for _, workers := range []int{1, 2, 4, 8} {
		pool, err := NewEvaluatorPool(tr, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pool.EvaluateMany(placements, workers)
		pool.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d placement %d: batch result differs from fresh replay\n  batch: %+v\n  fresh: %+v",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestEvaluateManyFailures covers the batch error paths: an invalid
// placement, a panic inside a walker and a stalled walker each come back
// as an error naming the lowest failed placement, the same at every
// worker count, and neither the panic nor the stall reaches the test
// process.
func TestEvaluateManyFailures(t *testing.T) {
	fab := fabric.NewScaled(1)
	tr := meshTrace(t, 4, units.KB)
	cfg := ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Policy: transport.Congested()}
	good := evalPlacements(fab, 4)[0]
	bad := evalPlacements(fab, 4)[0]
	bad[0].Core = 7
	// All four ranks on one node: every send is intra-node and never
	// looks up an inter-node route.
	oneNode := evalPlacements(fab, 4)[2]

	for _, workers := range []int{1, 2, 4, 8} {
		pool, err := NewEvaluatorPool(tr, cfg, 8)
		if err != nil {
			t.Fatal(err)
		}
		// tamper fills the pool with evaluators broken by f, one for
		// every worker that checks one out.
		tamper := func(f func(*Evaluator)) {
			pool.mu.Lock()
			defer pool.mu.Unlock()
			for len(pool.free) < 8 {
				ev, err := NewEvaluator(tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				pool.free = append(pool.free, ev)
			}
			for _, ev := range pool.free {
				f(ev)
			}
		}

		_, err = pool.EvaluateMany([][]transport.Endpoint{good, good, bad, good, bad}, workers)
		if err == nil || !strings.HasPrefix(err.Error(), "trace: replay placement 2: ") ||
			!strings.Contains(err.Error(), "core 7") {
			t.Errorf("workers=%d: bad core: error %v, want placement 2's", workers, err)
		}

		// A transport with no engine: the first inter-node send's chain
		// start schedules on it and panics inside the walker.
		tamper(func(ev *Evaluator) { ev.net = transport.New(nil, fab, ib.OpenMPI(), cfg.Policy) })
		_, err = pool.EvaluateMany([][]transport.Endpoint{oneNode, good, oneNode, good}, workers)
		if err == nil || !strings.HasPrefix(err.Error(), "trace: replay placement 1: panic: ") {
			t.Errorf("workers=%d: walker panic: error %v, want placement 1's panic", workers, err)
		}

		// A recv no send matches at the end of rank 0's stream: the
		// walker blocks for good and the calendar drains.
		tamper(func(ev *Evaluator) {
			w := &ev.walkers[0]
			w.stream = append(w.stream[:len(w.stream):len(w.stream)], replayOp{op: opRecv, peer: 1, tag: -1})
		})
		_, err = pool.EvaluateMany([][]transport.Endpoint{good, oneNode}, workers)
		if want := "trace: replay placement 0: trace: replay " + tr.Meta.Name + ": 3 of 4 ranks completed"; err == nil || err.Error() != want {
			t.Errorf("workers=%d: stalled walker: error %v, want %q", workers, err, want)
		}
		pool.Close()
	}
}
