package scenario

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
)

// The scenario sweeps spread their independent simulations — separate
// (op, communicator, fabric-policy) points, replay placements — over a
// pool of workers (collectives.RunMany, trace.EvaluatorPool.EvaluateMany).
// Results are byte-identical at any worker count (pinned by the
// orchestrator's serial ≡ parallel suite and the pdes-smoke CI job); the
// knob only sets how many runs go at once.
var pdesWorkers atomic.Int32 // 0 = auto (GOMAXPROCS); 1 = one run at a time

// SetParallel sets how many workers the sweeps' independent runs use:
// 0 restores auto (GOMAXPROCS), 1 runs them one at a time (the CLIs'
// -pdes=off), higher values pin a worker count.
func SetParallel(workers int) {
	if workers < 0 {
		workers = 0
	}
	pdesWorkers.Store(int32(workers))
}

// ParallelWorkers returns the effective worker count for the sweeps'
// independent runs. Auto follows GOMAXPROCS, not the raw CPU count, so
// GOMAXPROCS=1 environments (the pdes-smoke CI job's serial leg) run
// one at a time without touching the flag.
func ParallelWorkers() int {
	if w := pdesWorkers.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// ApplyPDESFlag parses the CLIs' shared -pdes value, the number of
// workers for independent runs: "off" means one, "auto" (or "") sizes
// the pool to GOMAXPROCS, and a positive integer pins the count. Any
// setting changes wall clock only, never results.
func ApplyPDESFlag(v string) error {
	switch v {
	case "off":
		SetParallel(1)
	case "auto", "":
		SetParallel(0)
	default:
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return fmt.Errorf("bad -pdes value %q: want off, auto or a positive worker count", v)
		}
		SetParallel(n)
	}
	return nil
}
