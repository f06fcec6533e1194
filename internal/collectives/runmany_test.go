package collectives

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"roadrunner/internal/sim"
	"roadrunner/internal/units"
)

// script is a rank program that plays the given exchanges in order.
func script(xs ...exchange) program {
	return program{next: func(x *exchange) bool {
		if len(xs) == 0 {
			return false
		}
		*x = xs[0]
		xs = xs[1:]
		return true
	}}
}

// TestRunManyMatchesRun pins the batch contract: RunMany returns, at
// every worker count, exactly the Result a lone Run of each request
// produces, in request order.
func TestRunManyMatchesRun(t *testing.T) {
	var reqs []Request
	for _, n := range []int{5, 13} {
		cong, err := CongestedConfig(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range Ops() {
			reqs = append(reqs,
				Request{Cfg: testConfig(n), Op: op, Size: 4 * units.KB},
				Request{Cfg: cong, Op: op, Size: 64 * units.KB})
		}
	}
	want := make([]*Result, len(reqs))
	for i, rq := range reqs {
		r, err := Run(rq.Cfg, rq.Op, rq.Size)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want[i] = r
	}
	for _, workers := range []int{1, 2, 4} {
		got, err := RunMany(reqs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d request %d (%s): batch result differs from Run", workers, i, reqs[i].Op)
			}
		}
	}
}

// TestRunManyFailures gives requests programs that deadlock or panic:
// each failure comes back as an error naming its request — the lowest
// failed index at every worker count — instead of crashing the process,
// and with one worker no request starts after the failed one.
func TestRunManyFailures(t *testing.T) {
	var started atomic.Int64
	ops := map[Op]algorithm{
		"test-deadlock": func(r, n, root int, size units.Size) program {
			if r == 1 {
				return script(exchange{recv: true, src: 0, tag: 99})
			}
			return script()
		},
		"test-panic": func(r, n, root int, size units.Size) program {
			if r == 2 {
				return program{next: func(*exchange) bool { panic("boom") }}
			}
			return script(exchange{recv: true, src: 3, tag: 99}) // still waiting under the panic
		},
		"test-count": func(r, n, root int, size units.Size) program {
			if r == 0 {
				started.Add(1)
			}
			return algorithms[BarrierRecursiveDoubling](r, n, root, size)
		},
	}
	for op, algo := range ops {
		algorithms[op] = algo
	}
	t.Cleanup(func() {
		for op := range ops {
			delete(algorithms, op)
		}
	})
	cfg := testConfig(4)
	ok := Request{Cfg: cfg, Op: AllreduceRing, Size: units.KB}
	deadlock := Request{Cfg: cfg, Op: "test-deadlock"}
	boom := Request{Cfg: cfg, Op: "test-panic"}

	for _, workers := range []int{1, 2, 4} {
		_, err := RunMany([]Request{ok, ok, deadlock, ok, boom, ok}, workers)
		var d *sim.DeadlockError
		if !errors.As(err, &d) || !strings.HasPrefix(err.Error(), "collectives: request 2: ") {
			t.Fatalf("workers=%d: error %v, want request 2's *sim.DeadlockError", workers, err)
		}
		if len(d.Procs) != 1 || !strings.Contains(d.Procs[0], "rank1 (recv from 0 tag 99)") {
			t.Errorf("workers=%d: deadlocked procs %v", workers, d.Procs)
		}

		_, err = RunMany([]Request{ok, boom, ok, deadlock}, workers)
		if want := "collectives: request 1: panic: boom"; err == nil || err.Error() != want {
			t.Errorf("workers=%d: error %v, want %q", workers, err, want)
		}
	}

	count := Request{Cfg: cfg, Op: "test-count"}
	started.Store(0)
	if _, err := RunMany([]Request{boom, count, count, count}, 1); err == nil {
		t.Fatal("panicking batch returned no error")
	}
	if n := started.Load(); n != 0 {
		t.Errorf("%d requests started after the failed one", n)
	}
}
