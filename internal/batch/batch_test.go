package batch

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunEveryIndexOnce: every index runs exactly once, every w is
// below the goroutine count, and each goroutine's claims increase.
func TestRunEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		const n = 200
		var mu sync.Mutex
		runs := make([]int, n)
		claims := map[int][]int{}
		i, err := Run(n, workers, func(w, i int) error {
			mu.Lock()
			defer mu.Unlock()
			runs[i]++
			claims[w] = append(claims[w], i)
			return nil
		})
		if i != -1 || err != nil {
			t.Fatalf("workers=%d: Run = %d, %v; want -1, nil", workers, i, err)
		}
		for i, c := range runs {
			if c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		for w, got := range claims {
			if w < 0 || w >= workers {
				t.Errorf("workers=%d: job saw w=%d", workers, w)
			}
			for k := 1; k < len(got); k++ {
				if got[k] <= got[k-1] {
					t.Errorf("workers=%d: goroutine %d claimed %d after %d", workers, w, got[k], got[k-1])
				}
			}
		}
	}
}

// TestRunLowestFailure: with failures at several indices, Run returns
// the lowest at every worker count.
func TestRunLowestFailure(t *testing.T) {
	fails := map[int]bool{5: true, 9: true, 17: true, 30: true}
	for _, workers := range []int{1, 2, 4, 8} {
		i, err := Run(40, workers, func(_, i int) error {
			if fails[i] {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if i != 5 || err == nil || err.Error() != "job 5 failed" {
			t.Errorf("workers=%d: Run = %d, %v; want 5, job 5 failed", workers, i, err)
		}
	}
}

// TestRunPanic: a panic inside a job comes back as that job's error
// instead of crashing the process, and as the lowest failure when
// another job fails later.
func TestRunPanic(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		i, err := Run(12, workers, func(_, i int) error {
			switch i {
			case 3:
				panic("boom")
			case 7:
				return errors.New("late failure")
			}
			return nil
		})
		if i != 3 || err == nil || err.Error() != "panic: boom" {
			t.Errorf("workers=%d: Run = %d, %v; want 3, panic: boom", workers, i, err)
		}
	}
}

// TestRunNoStartAfterFailure: at one worker, no job starts after the
// failed one.
func TestRunNoStartAfterFailure(t *testing.T) {
	var started []int
	i, err := Run(10, 1, func(_, i int) error {
		started = append(started, i)
		if i == 4 {
			return errors.New("stop")
		}
		return nil
	})
	if i != 4 || err == nil {
		t.Fatalf("Run = %d, %v; want 4 and an error", i, err)
	}
	if fmt.Sprint(started) != "[0 1 2 3 4]" {
		t.Errorf("started %v, want [0 1 2 3 4]", started)
	}
}

// TestRunWorkerCount: workers < 1 runs GOMAXPROCS goroutines, and
// never more goroutines than jobs. Each job waits until the expected
// number are in flight, so too few goroutines time out.
func TestRunWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, tc := range []struct{ n, workers, want int }{
		{8, 0, 3}, {8, -1, 3}, {2, 0, 2}, {3, 8, 3}, {8, 2, 2},
	} {
		var inFlight, peak atomic.Int32
		all := make(chan struct{})
		var once sync.Once
		_, err := Run(tc.n, tc.workers, func(w, i int) error {
			if w >= tc.want {
				return fmt.Errorf("w=%d, want below %d", w, tc.want)
			}
			now := inFlight.Add(1)
			defer inFlight.Add(-1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			if int(now) == tc.want {
				once.Do(func() { close(all) })
			}
			select {
			case <-all:
				return nil
			case <-time.After(10 * time.Second):
				return fmt.Errorf("only %d of %d jobs in flight", inFlight.Load(), tc.want)
			}
		})
		if err != nil {
			t.Errorf("n=%d workers=%d: %v", tc.n, tc.workers, err)
		}
		if got := int(peak.Load()); got != tc.want {
			t.Errorf("n=%d workers=%d: %d jobs in flight at once, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
}

// TestRunEmpty: n = 0 runs nothing.
func TestRunEmpty(t *testing.T) {
	i, err := Run(0, 4, func(_, _ int) error {
		t.Error("job called on an empty batch")
		return nil
	})
	if i != -1 || err != nil {
		t.Errorf("Run = %d, %v; want -1, nil", i, err)
	}
}
