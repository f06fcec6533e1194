package sim

import (
	"testing"

	"roadrunner/internal/units"
)

// TestEngineResetReproducesFreshRun: a pooled engine replays a workload
// with the same timestamps, sequence ordering and stats as a fresh
// engine.
func TestEngineResetReproducesFreshRun(t *testing.T) {
	workload := func(e *Engine) (finish units.Time, st Stats) {
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn("w", func(p *Proc) {
				for r := 0; r < 8; r++ {
					p.Sleep(units.Time(1+i) * units.Microsecond)
				}
				if p.Now() > finish {
					finish = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return finish, e.Stats()
	}
	fresh := NewEngine()
	defer fresh.Close()
	wantFinish, wantStats := workload(fresh)

	pooled := NewEngine()
	defer pooled.Close()
	workload(pooled) // warm
	pooled.Reset()
	if pooled.Now() != 0 || pooled.Stats() != (Stats{}) {
		t.Fatalf("reset engine not pristine: now %v stats %+v", pooled.Now(), pooled.Stats())
	}
	gotFinish, gotStats := workload(pooled)
	if gotFinish != wantFinish || gotStats != wantStats {
		t.Errorf("pooled run diverged: %v/%+v vs fresh %v/%+v", gotFinish, gotStats, wantFinish, wantStats)
	}
}

// TestEngineResetRefusesDirtyState: live procs or queued events must be
// torn down with Close, not recycled.
func TestEngineResetRefusesDirtyState(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	defer e.Close()
	e.Schedule(units.Microsecond, func() {})
	expectPanic("queued events", e.Reset)

	e2 := NewEngine()
	defer e2.Close()
	e2.Spawn("stuck", func(p *Proc) { p.Park("forever") })
	if err := e2.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	expectPanic("live procs", e2.Reset)

	e3 := NewEngine()
	e3.Close()
	expectPanic("closed engine", e3.Reset)
}

// TestWakeAfter: the timed wake lands exactly at now+delay and respects
// the double-wake guard.
func TestWakeAfter(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var woke units.Time
	p := e.Spawn("sleeper", func(p *Proc) {
		p.Park("waiting for a timed wake")
		woke = p.Now()
	})
	e.Schedule(2*units.Microsecond, func() {
		p.WakeAfter(5 * units.Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 7*units.Microsecond {
		t.Errorf("woke at %v, want 7us", woke)
	}
}

// TestResourceAcquireFn: the event-chain acquisition grants inline when
// free, queues FIFO when contended, and keeps the occupancy accounting.
func TestResourceAcquireFn(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link", 1)
	var order []string
	e.Schedule(0, func() {
		if !r.AcquireFn(1, nil) {
			t.Error("free AcquireFn queued")
		}
		e.Schedule(10*units.Microsecond, func() {
			order = append(order, "holder-release")
			r.Release(1)
		})
	})
	// Two waiters queue behind the holder: grants must come in FIFO
	// order.
	for i, name := range []string{"second", "third"} {
		e.Schedule(units.Time(1+i)*units.Microsecond, func() {
			if r.AcquireFn(1, func() {
				order = append(order, name)
				e.Schedule(5*units.Microsecond, func() { r.Release(1) })
			}) {
				t.Errorf("contended AcquireFn %s granted inline", name)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"holder-release", "second", "third"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("grant order %v, want %v", order, want)
	}
	st := r.Stats()
	if st.Acquires != 3 || st.Contended != 2 || st.WaitTime == 0 {
		t.Errorf("stats %+v", st)
	}
	// Inline grant on a free resource.
	granted := false
	e.Schedule(0, func() {
		granted = r.AcquireFn(1, func() { t.Error("inline grant must not call fn") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !granted {
		t.Error("free AcquireFn not granted inline")
	}
	// ResetStats refuses a busy resource, then zeroes the accounting of
	// an idle one.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ResetStats of a held resource did not panic")
			}
		}()
		r.ResetStats()
	}()
	r.Release(1)
	r.ResetStats()
	if st := r.Stats(); st.Acquires != 0 || st.Contended != 0 || st.WaitTime != 0 || st.BusyTime != 0 {
		t.Errorf("stats after reset: %+v", st)
	}
}
