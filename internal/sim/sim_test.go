package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"roadrunner/internal/units"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*units.Nanosecond, func() { got = append(got, 3) })
	e.Schedule(10*units.Nanosecond, func() { got = append(got, 1) })
	e.Schedule(20*units.Nanosecond, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if e.Now() != 30*units.Nanosecond {
		t.Errorf("final time = %v", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(units.Microsecond, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order = %v", got)
		}
	}
}

func TestEventOrderProperty(t *testing.T) {
	// Random delays always fire in nondecreasing time order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var times []units.Time
		n := 50
		var schedule func(depth int)
		schedule = func(depth int) {
			d := units.Time(rng.Intn(1000)) * units.Nanosecond
			e.Schedule(d, func() {
				times = append(times, e.Now())
				if depth > 0 && rng.Intn(2) == 0 {
					schedule(depth - 1)
				}
			})
		}
		for i := 0; i < n; i++ {
			schedule(3)
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on negative delay")
		}
	}()
	e := NewEngine()
	e.Schedule(-1, func() {})
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var wake units.Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * units.Microsecond)
		p.Sleep(3 * units.Microsecond)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 8*units.Microsecond {
		t.Errorf("woke at %v, want 8us", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(2 * units.Nanosecond)
		trace = append(trace, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(1 * units.Nanosecond)
		trace = append(trace, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "b1", "a2"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("stuck", func(p *Proc) {
		p.Park("waiting for nothing")
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Procs) != 1 {
		t.Errorf("blocked procs = %v", de.Procs)
	}
}

func TestParkWake(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var p1 *Proc
	var order []string
	p1 = e.Spawn("waiter", func(p *Proc) {
		p.Park("test")
		order = append(order, "woken")
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(10 * units.Nanosecond)
		order = append(order, "waking")
		p1.Wake()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "waking" || order[1] != "woken" {
		t.Errorf("order = %v", order)
	}
}

// hold takes one unit of r for d as an event chain, then releases it and
// calls done, if any.
func hold(e *Engine, r *Resource, d units.Time, done func()) {
	held := func() {
		e.Schedule(d, func() {
			r.Release(1)
			if done != nil {
				done()
			}
		})
	}
	if r.AcquireFn(1, held) {
		held()
	}
}

func TestResourceSerialises(t *testing.T) {
	e := NewEngine()
	res := NewResource(e, "link", 1)
	var done []units.Time
	for i := 0; i < 3; i++ {
		hold(e, res, 10*units.Nanosecond, func() { done = append(done, e.Now()) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []units.Time{10 * units.Nanosecond, 20 * units.Nanosecond, 30 * units.Nanosecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if res.BusyTime() != 30*units.Nanosecond {
		t.Errorf("busy = %v", res.BusyTime())
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine()
	res := NewResource(e, "dual", 2)
	var done []units.Time
	for i := 0; i < 4; i++ {
		hold(e, res, 10*units.Nanosecond, func() { done = append(done, e.Now()) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two at a time: finish at 10,10,20,20.
	want := []units.Time{10 * units.Nanosecond, 10 * units.Nanosecond, 20 * units.Nanosecond, 20 * units.Nanosecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEngine()
	res := NewResource(e, "link", 1)
	var order []int
	for i := 0; i < 5; i++ {
		e.Schedule(units.Time(i)*units.Nanosecond, func() {
			granted := func() {
				order = append(order, i)
				e.Schedule(100*units.Nanosecond, func() { res.Release(1) })
			}
			if res.AcquireFn(1, granted) {
				granted()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []units.Time {
		e := NewEngine()
		res := NewResource(e, "r", 1)
		var times []units.Time
		for i := 0; i < 8; i++ {
			e.Schedule(units.Time(i%3)*units.Nanosecond, func() {
				hold(e, res, 5*units.Nanosecond, func() {
					times = append(times, e.Now())
					e.Schedule(units.Time(i)*units.Nanosecond, func() { times = append(times, e.Now()) })
				})
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCloseUnblocksParked(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) {
		p.Park("forever")
		t.Error("should never resume normally")
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	e.Close() // must not hang and must not run the post-Park code
}

func TestSpawnAtDelay(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var start units.Time
	e.SpawnAt(7*units.Microsecond, "late", func(p *Proc) {
		start = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if start != 7*units.Microsecond {
		t.Errorf("started at %v", start)
	}
}
