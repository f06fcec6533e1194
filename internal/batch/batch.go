// Package batch runs a batch of independent jobs over a bounded set of
// goroutines. It is the one place that defines how the reproduction's
// independent simulations share the host: the collective sweeps
// (collectives.RunMany), the pooled replays (trace.EvaluatorPool),
// placement's candidate tiers and the experiment suite all run on Run.
//
// Two rules keep every batch's outcome independent of the worker count
// and of goroutine scheduling. Goroutines claim indices in increasing
// order, and a failure stops further claims, so every index below the
// lowest failure was claimed before it and runs to the end: the lowest
// failed index, and its error, is the same at any worker count.
package batch

import (
	"fmt"
	"runtime"
	"sync"
)

// Run calls job(w, i) once for every i in [0, n), on min(workers, n)
// goroutines; workers < 1 means GOMAXPROCS. w numbers the calling
// goroutine, from 0 to that count minus one, so a job can keep
// per-goroutine state (an evaluator, a pricing clone) in a slice
// indexed by w. Each goroutine claims the next unclaimed index until
// none is left, and Run returns once every claimed job has returned.
//
// A job fails when it returns an error or panics; a panic comes back as
// the error "panic: <value>" instead of crashing the process. After a
// failure no index is claimed, and Run returns the lowest failed index
// with its error. With no failure it returns -1 and nil.
func Run(n, workers int, job func(w, i int) error) (int, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		mu      sync.Mutex
		next    int
		failed  = -1
		failErr error
		wg      sync.WaitGroup
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next == n || failErr != nil {
			return -1
		}
		next++
		return next - 1
	}
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := claim(); i >= 0; i = claim() {
				if err := call(job, w, i); err != nil {
					mu.Lock()
					if failErr == nil || i < failed {
						failed, failErr = i, err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return failed, failErr
}

// call runs one job, turning a panic inside it into an error.
func call(job func(w, i int) error, w, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return job(w, i)
}
