package sim

import (
	"fmt"
	"strings"
	"testing"

	"roadrunner/internal/units"
)

// TestResourceOccupancyStats pins the occupancy accounting under crafted
// contention: three chains contend for a capacity-1 resource, each
// holding it for 10 ns. A acquires at t=0 uncontended; B and C queue at
// t=0 and are granted at t=10ns and t=20ns.
func TestResourceOccupancyStats(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link", 1)
	for range 3 {
		hold(e, r, 10*units.Nanosecond, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.Capacity != 1 || s.InUse != 0 {
		t.Errorf("capacity/inUse = %d/%d", s.Capacity, s.InUse)
	}
	if s.PeakInUse != 1 {
		t.Errorf("peak = %d, want 1", s.PeakInUse)
	}
	if s.Acquires != 3 || s.Contended != 2 {
		t.Errorf("acquires/contended = %d/%d, want 3/2", s.Acquires, s.Contended)
	}
	// B waits 10 ns, C waits 20 ns.
	if want := 30 * units.Nanosecond; s.WaitTime != want {
		t.Errorf("wait time = %v, want %v", s.WaitTime, want)
	}
	// Queue length: 2 waiters over [0,10ns), 1 over [10ns,20ns).
	if want := 30 * units.Nanosecond; s.QueueArea != want {
		t.Errorf("queue area = %v, want %v", s.QueueArea, want)
	}
	// Busy back to back from 0 to 30 ns.
	if want := 30 * units.Nanosecond; s.BusyTime != want {
		t.Errorf("busy = %v, want %v", s.BusyTime, want)
	}
	if got := s.MeanQueue(30 * units.Nanosecond); got != 1.0 {
		t.Errorf("mean queue = %v, want 1.0", got)
	}
	if got := s.Utilization(30 * units.Nanosecond); got != 1.0 {
		t.Errorf("utilization = %v, want 1.0", got)
	}
}

// TestResourceStatsCapacityTwo checks peak tracking and that uncontended
// admissions accrue no wait.
func TestResourceStatsCapacityTwo(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dual", 2)
	const d = 10 * units.Nanosecond
	for i := 0; i < 2; i++ {
		hold(e, r, d, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.PeakInUse != 2 {
		t.Errorf("peak = %d, want 2", s.PeakInUse)
	}
	if s.Contended != 0 || s.WaitTime != 0 || s.QueueArea != 0 {
		t.Errorf("uncontended run accrued contention: %+v", s)
	}
	if s.BusyTime != d {
		t.Errorf("busy = %v, want %v", s.BusyTime, d)
	}
}

// TestResourceStatsStaggered checks the queue integral with a gap between
// holds and a late-arriving waiter.
func TestResourceStatsStaggered(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link", 1)
	hold(e, r, 20*units.Nanosecond, nil)
	// Arrives at t=5ns, queues 15 ns, holds 20 ns (to t=40ns).
	e.Schedule(5*units.Nanosecond, func() { hold(e, r, 20*units.Nanosecond, nil) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if want := 15 * units.Nanosecond; s.WaitTime != want {
		t.Errorf("wait = %v, want %v", s.WaitTime, want)
	}
	// One waiter over [5ns, 20ns).
	if want := 15 * units.Nanosecond; s.QueueArea != want {
		t.Errorf("queue area = %v, want %v", s.QueueArea, want)
	}
	if want := 40 * units.Nanosecond; s.BusyTime != want {
		t.Errorf("busy = %v, want %v", s.BusyTime, want)
	}
	if s.PeakInUse != 1 || s.Acquires != 2 || s.Contended != 1 {
		t.Errorf("peak/acquires/contended = %d/%d/%d", s.PeakInUse, s.Acquires, s.Contended)
	}
}

// countingLabel names a resource and counts how often it was asked to.
type countingLabel struct {
	name  string
	calls int
}

func (l *countingLabel) String() string { l.calls++; return l.name }

// TestLabeledResourceNamesLazily pins the labeled constructor: admission,
// release and occupancy never format the label, while the Stats name
// and the panic texts read exactly as they do for a resource built with
// that name.
func TestLabeledResourceNamesLazily(t *testing.T) {
	lbl := &countingLabel{name: "CU1/xbar0->spine3"}
	e := NewEngine()
	defer e.Close()
	r := NewLabeledResource(e, lbl, 1)
	if !r.AcquireFn(1, nil) {
		t.Fatal("uncontended acquire queued")
	}
	r.Occupancy()
	r.Release(1)
	if lbl.calls != 0 {
		t.Errorf("admission and occupancy formatted the label %d times", lbl.calls)
	}

	// texts returns the Stats name and the panic of an over-release.
	texts := func(mk func(*Engine) *Resource) (name, panicText string) {
		r := mk(NewEngine())
		r.AcquireFn(1, nil)
		r.Release(1)
		func() {
			defer func() { panicText = fmt.Sprint(recover()) }()
			r.Release(1)
		}()
		return r.Stats().Name, panicText
	}
	n1, p1 := texts(func(e *Engine) *Resource { return NewResource(e, lbl.name, 1) })
	n2, p2 := texts(func(e *Engine) *Resource { return NewLabeledResource(e, lbl, 1) })
	if n1 != n2 || p1 != p2 {
		t.Errorf("labeled texts differ:\n  name %q vs %q\n  panic %q vs %q", n1, n2, p1, p2)
	}
	if n1 != lbl.name || !strings.Contains(p1, `"`+lbl.name+`"`) {
		t.Errorf("texts do not carry the name: %q, %q", n1, p1)
	}
}
