package sim

import (
	"fmt"

	"roadrunner/internal/units"
)

// Resource models a server with integer capacity and a FIFO wait queue:
// links, DMA engines, switch ports. AcquireFn takes the requested units
// at once or queues the caller's continuation until they are available;
// Release returns them and wakes waiters in order.
//
// Beyond admission control the resource keeps occupancy statistics —
// peak units in use, total time acquirers spent queued, and the
// time-integral of the queue length — so saturation is observable, not
// just enforced. The congestion-aware transport layer reads these to
// report which fabric links throttle a run.
type Resource struct {
	eng      *Engine
	label    fmt.Stringer // the name, formatted only when a text needs it
	capacity int
	inUse    int
	waiters  []resourceWaiter
	fnWake   func() // reusable wake event for queued fn waiters

	// Occupancy accounting.
	busySince units.Time
	busyTime  units.Time
	peakInUse int
	acquires  int64
	contended int64      // acquisitions that had to queue
	waitTime  units.Time // total time acquirers spent queued
	queueArea units.Time // integral of queue length over time (waiter-time)
	queueMark units.Time // instant the queue length last changed
}

// resourceWaiter is one queued acquisition: a continuation called once
// the units are taken on its behalf.
type resourceWaiter struct {
	fn          func()
	n           int
	queuedAt    units.Time // when the acquisition queued
	wakePending bool       // a re-check of the head is scheduled
}

// NewResource creates a resource with the given capacity (must be >= 1).
func NewResource(eng *Engine, name string, capacity int) *Resource {
	return NewLabeledResource(eng, fixedName(name), capacity)
}

// NewLabeledResource creates a resource named by label.String(), which
// runs only when a panic text or Stats needs the name: a
// caller creating many resources, most of them never reported, formats
// none of them up front.
func NewLabeledResource(eng *Engine, label fmt.Stringer, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", label.String(), capacity))
	}
	return &Resource{eng: eng, label: label, capacity: capacity}
}

// fixedName is a resource name that is already a string.
type fixedName string

func (n fixedName) String() string { return string(n) }

// Capacity returns the configured capacity.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the units currently held.
func (r *Resource) InUse() int { return r.inUse }

// noteQueue accrues the queue-length integral up to now. Call before any
// change to len(r.waiters).
func (r *Resource) noteQueue() {
	now := r.eng.Now()
	r.queueArea += units.Time(len(r.waiters)) * (now - r.queueMark)
	r.queueMark = now
}

// AcquireFn obtains n units for an event-chain caller: it either takes
// them inline and returns true, or queues the continuation in FIFO order
// behind earlier waiters and returns false — fn will be invoked (from an
// event, after the units have been taken on its behalf) once the grant
// reaches it. A grant that frees the head schedules one wake at delay 0
// that re-checks it, so every queued acquisition costs the calendar
// exactly one event per wake.
func (r *Resource) AcquireFn(n int, fn func()) bool {
	if n < 1 || n > r.capacity {
		panic(fmt.Sprintf("sim: resource %q acquire %d of %d", r.label.String(), n, r.capacity))
	}
	r.acquires++
	// FIFO fairness: even if units are free, queue behind existing waiters.
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.take(n)
		return true
	}
	r.contended++
	r.noteQueue()
	r.waiters = append(r.waiters, resourceWaiter{fn: fn, n: n, queuedAt: r.eng.Now()})
	return false
}

// wakeHeadFn is the scheduled wake of the queue head. If the head can
// now proceed it is dequeued, charged and granted, and its continuation
// runs; a wake that raced with another grab just clears the pending
// flag and waits for the next Release.
func (r *Resource) wakeHeadFn() {
	head := &r.waiters[0]
	head.wakePending = false
	if r.inUse+head.n <= r.capacity {
		fn, n, queuedAt := head.fn, head.n, head.queuedAt
		r.noteQueue()
		// Shift-down pop: a waiters[1:] window would exhaust the backing
		// array and force an allocation on nearly every contended
		// admission.
		copy(r.waiters, r.waiters[1:])
		r.waiters[len(r.waiters)-1] = resourceWaiter{}
		r.waiters = r.waiters[:len(r.waiters)-1]
		r.waitTime += r.eng.Now() - queuedAt
		r.take(n)
		r.grantNext()
		fn()
	}
}

func (r *Resource) take(n int) {
	if r.inUse == 0 {
		r.busySince = r.eng.Now()
	}
	r.inUse += n
	if r.inUse > r.peakInUse {
		r.peakInUse = r.inUse
	}
}

// Release returns n units and wakes eligible waiters.
func (r *Resource) Release(n int) {
	if n < 1 || n > r.inUse {
		panic(fmt.Sprintf("sim: resource %q release %d of %d in use", r.label.String(), n, r.inUse))
	}
	r.inUse -= n
	if r.inUse == 0 {
		r.busyTime += r.eng.Now() - r.busySince
	}
	r.grantNext()
}

// grantNext wakes the queue head if it can now be satisfied.
func (r *Resource) grantNext() {
	if len(r.waiters) == 0 {
		return
	}
	head := &r.waiters[0]
	if r.inUse+head.n > r.capacity {
		return
	}
	if !head.wakePending {
		head.wakePending = true
		if r.fnWake == nil {
			r.fnWake = r.wakeHeadFn
		}
		r.eng.Schedule(0, r.fnWake)
	}
}

// BusyTime returns the total time the resource spent with at least one
// unit in use. If currently busy, time up to Now() is included.
func (r *Resource) BusyTime() units.Time {
	t := r.busyTime
	if r.inUse > 0 {
		t += r.eng.Now() - r.busySince
	}
	return t
}

// ResetStats zeroes the occupancy accounting — peak, contention, wait and
// queue integrals — so a pooled resource starts the next run with fresh
// counters. The admission state must be idle (nothing held, nobody
// queued); resetting a busy resource would corrupt the busy-time and
// queue-area integrals, so it panics instead.
func (r *Resource) ResetStats() {
	if r.inUse > 0 || len(r.waiters) > 0 {
		panic(fmt.Sprintf("sim: resource %q stats reset with %d in use, %d waiting",
			r.label.String(), r.inUse, len(r.waiters)))
	}
	r.busySince = 0
	r.busyTime = 0
	r.peakInUse = 0
	r.acquires = 0
	r.contended = 0
	r.waitTime = 0
	r.queueArea = 0
	r.queueMark = 0
}

// ResourceStats is a snapshot of a resource's occupancy counters.
type ResourceStats struct {
	Name      string
	Capacity  int
	InUse     int
	PeakInUse int        // high-water mark of units held at once
	Acquires  int64      // total successful or pending acquisitions started
	Contended int64      // acquisitions that queued before being granted
	WaitTime  units.Time // total time acquirers spent queued
	BusyTime  units.Time // time with at least one unit in use (up to Now)
	QueueArea units.Time // integral of queue length over time (waiter-time)
}

// Stats snapshots the name and the occupancy counters, accruing the
// queue integral and busy time up to Now().
func (r *Resource) Stats() ResourceStats {
	s := r.Occupancy()
	s.Name = r.label.String()
	return s
}

// Occupancy is Stats without the name, for callers that report the
// resource under a key of their own: a labeled resource stays
// unformatted.
func (r *Resource) Occupancy() ResourceStats {
	area := r.queueArea + units.Time(len(r.waiters))*(r.eng.Now()-r.queueMark)
	return ResourceStats{
		Capacity:  r.capacity,
		InUse:     r.inUse,
		PeakInUse: r.peakInUse,
		Acquires:  r.acquires,
		Contended: r.contended,
		WaitTime:  r.waitTime,
		BusyTime:  r.BusyTime(),
		QueueArea: area,
	}
}

// MeanQueue returns the time-averaged queue length over the given horizon
// (typically the engine's final time).
func (s ResourceStats) MeanQueue(horizon units.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(s.QueueArea) / float64(horizon)
}

// Utilization returns the fraction of the given horizon the resource was
// busy.
func (s ResourceStats) Utilization(horizon units.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(s.BusyTime) / float64(horizon)
}
