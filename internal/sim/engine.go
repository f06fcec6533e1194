// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine maintains a calendar of timestamped events. Ties are broken by
// insertion sequence, so a given program always replays identically. Every
// model in the module is written as plain events: the rank walkers of trace
// replay, of the collectives and of the Sweep3D DES keep their own program
// counters and schedule their next steps, the transfer chains under them
// (transport, CML, DaCS, EIB) schedule one event per interval, and a shared
// server — a link, a DMA queue, a DaCS wire — queues a continuation on a
// Resource (AcquireFn) instead of a blocked process.
//
// The package also offers Procs: coroutines that run simulation logic
// written in a blocking style (Sleep, Park, Resumer), while the engine
// guarantees that at most one of them (or the engine loop) runs at any
// instant. Their one caller outside tests is perfbench's
// transport.transfer_ns rung, which drives the blocking
// transport.(*Net).Transfer from a proc; once that rung moves onto the
// transfer chain, proc.go, the engine's proc list, Close's kill and the
// proc half of DeadlockError can go.
//
// The calendar is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan,
// J. ACM 1990), the monotone priority queue a DES clock permits, since
// no event is scheduled before Now: scheduling is one append with no
// comparison, and zero-delay events and ties queue FIFO behind the
// events already due at Now (see Engine). Events are held by value, so
// scheduling costs no allocation beyond amortised slice growth and
// dispatching never touches the garbage collector. A finished engine can be Reset
// with its buckets' backing arrays retained, so pooled callers (the
// replay evaluator) pay construction once per search, not per
// evaluation. All of it matters because the experiment orchestrator
// runs one engine per experiment across all CPUs at once, and the
// placement optimizer replays tens of thousands of evaluations per run.
package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"roadrunner/internal/units"
)

// event is a single calendar entry, stored by value in a bucket.
type event struct {
	at units.Time
	fn func()
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
//
// The calendar's base is the clock: the time of the last dispatched
// event, or 0 after NewEngine and Reset. Bucket 0 holds the events at
// Now; bucket k holds the events whose time first differs from Now in
// bit k-1, k = bits.Len64(at ^ now). Times are non-negative, so k never
// exceeds 63. Every bucket keeps its events in schedule order: appends
// arrive in that order, and a redistribution (next) only ever fills
// buckets that are empty. Events therefore dispatch in (time, schedule
// order) with no sequence number and no key comparison.
type Engine struct {
	now     units.Time
	buckets [64][]event
	head    int    // buckets[0] index of the next event to dispatch
	full    uint64 // bit k set while buckets[k] may hold events
	pending int    // events on the calendar

	procs  procList // all live (not yet finished) procs
	closed bool

	dispatched  int64 // events executed over the engine's lifetime
	peakPending int   // most events on the calendar at once
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Schedule arranges for fn to run at Now()+delay. A negative delay panics:
// the calendar cannot move backwards.
func (e *Engine) Schedule(delay units.Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.At(e.now+delay, fn)
}

// At arranges for fn to run at absolute time t, which must not precede
// Now(). It appends the event to its bucket: no comparison, no sift.
func (e *Engine) At(t units.Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	k := bits.Len64(uint64(t ^ e.now))
	e.buckets[k] = append(e.buckets[k], event{at: t, fn: fn})
	e.full |= 1 << k
	e.pending++
	if e.pending > e.peakPending {
		e.peakPending = e.pending
	}
}

// next refills bucket 0 once it has been drained, and reports whether
// any event is left. The lowest non-empty bucket holds the earliest
// events; its earliest time becomes the clock, and each of its events
// moves to the bucket of its time under the new clock. Every one lands
// in a lower bucket, and all of those are empty, so each keeps its
// events in schedule order. An event moves down at most 63 times in its
// life. The drained slots are zeroed so the event closures can be
// collected.
func (e *Engine) next() bool {
	clear(e.buckets[0])
	e.buckets[0], e.head = e.buckets[0][:0], 0
	e.full &^= 1
	if e.full == 0 {
		return false
	}
	k := bits.TrailingZeros64(e.full)
	b := e.buckets[k]
	now := b[0].at
	for _, ev := range b[1:] {
		now = min(now, ev.at)
	}
	e.now = now
	for _, ev := range b {
		j := bits.Len64(uint64(ev.at ^ now))
		e.buckets[j] = append(e.buckets[j], ev)
		e.full |= 1 << j
	}
	clear(b)
	e.buckets[k] = b[:0]
	e.full &^= 1 << k
	return true
}

// Stats is a snapshot of engine counters, cheap enough to read anywhere.
type Stats struct {
	Dispatched   int64 // events executed so far
	CalendarPeak int   // most events on the calendar at once
	LiveProcs    int   // procs spawned and not yet finished
	ParkedProcs  int   // procs currently blocked
}

// Stats returns the engine's lifetime counters.
func (e *Engine) Stats() Stats {
	parked := 0
	for p := e.procs.head; p != nil; p = p.next {
		if p.state == procParked {
			parked++
		}
	}
	return Stats{
		Dispatched:   e.dispatched,
		CalendarPeak: e.peakPending,
		LiveProcs:    e.procs.n,
		ParkedProcs:  parked,
	}
}

// Reset returns a finished engine to its initial state — time zero,
// empty calendar, zeroed counters — while keeping the buckets' backing
// arrays allocated, so a pooled engine replays a fresh workload without
// rebuilding its structures. A run that completed cleanly (Run returned
// nil and every proc finished) resets to a state byte-identical to
// NewEngine's apart from retained capacity; resetting a closed engine,
// or one with live procs or queued events, panics — those runs must be
// torn down with Close instead.
func (e *Engine) Reset() {
	if e.closed {
		panic("sim: reset of a closed engine")
	}
	if e.procs.n > 0 {
		panic(fmt.Sprintf("sim: reset with %d live proc(s)", e.procs.n))
	}
	if e.pending > 0 {
		panic(fmt.Sprintf("sim: reset with %d queued event(s)", e.pending))
	}
	e.now = 0
	e.dispatched = 0
	e.peakPending = 0
}

// DeadlockError is returned by Run when the calendar empties while
// processes remain blocked with nothing left to wake them.
type DeadlockError struct {
	Time  units.Time
	Procs []string // names and park reasons of the blocked processes
}

// Error implements the error interface.
func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d blocked process(es): %s",
		d.Time, len(d.Procs), strings.Join(d.Procs, "; "))
}

// Run processes events until the calendar is empty. It returns nil on a
// clean finish, or a *DeadlockError if blocked processes remain.
func (e *Engine) Run() error {
	if e.closed {
		return fmt.Errorf("sim: engine is closed")
	}
	for {
		// Re-read bucket 0 each time: the event may append to it.
		if b := e.buckets[0]; e.head < len(b) {
			fn := b[e.head].fn
			e.head++
			e.pending--
			e.dispatched++
			fn()
			continue
		}
		if !e.next() {
			break
		}
	}
	if e.procs.n > 0 {
		// Control only returns to the loop when every live proc is
		// blocked, so an empty calendar with live procs is a deadlock.
		d := &DeadlockError{Time: e.now}
		for p := e.procs.head; p != nil; p = p.next {
			d.Procs = append(d.Procs, p.name+" ("+p.parkReason+")")
		}
		sort.Strings(d.Procs)
		return d
	}
	return nil
}

// Close terminates any still-parked processes so their goroutines exit.
// The engine is unusable afterwards. It is safe to call Close after Run
// returned a DeadlockError, and in tests via defer.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for p := e.procs.head; p != nil; {
		next := p.next
		p.kill()
		p = next
	}
	e.procs = procList{}
	e.buckets, e.head, e.full, e.pending = [64][]event{}, 0, 0, 0
}
