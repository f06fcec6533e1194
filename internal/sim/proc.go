package sim

import (
	"fmt"
	"iter"

	"roadrunner/internal/units"
)

// procState tracks where a Proc is in its lifecycle.
type procState int

const (
	procRunning procState = iota // currently executing (or scheduled to start)
	procParked                   // blocked, waiting for a wake
	procDone                     // body returned or proc was killed
)

// procList is an intrusive doubly linked list of the live Procs.
// Insertion and removal are O(1) pointer updates on the Proc itself — no
// allocation, no map churn. Only spawn and finish touch it: the parked
// set is not a separate list but derived lazily (a live proc is parked
// whenever the engine loop looks — see Engine.run), so the park/unpark
// hot path does no list surgery at all.
type procList struct {
	head *Proc
	n    int
}

// push prepends p. Order is irrelevant to engine semantics (the list is
// only iterated for deadlock reports, which sort, and for Close).
func (l *procList) push(p *Proc) {
	if p.inList {
		return
	}
	p.prev = nil
	p.next = l.head
	if l.head != nil {
		l.head.prev = p
	}
	l.head = p
	l.n++
	p.inList = true
}

// remove unlinks p; removing a proc not on the list is a no-op.
func (l *procList) remove(p *Proc) {
	if !p.inList {
		return
	}
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		l.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	p.next, p.prev = nil, nil
	p.inList = false
	l.n--
}

// killSentinel is panicked inside a killed proc to unwind its stack; the
// coroutine wrapper recovers it so the coroutine finishes cleanly.
type killSentinel struct{}

// Proc is a simulation process: a coroutine whose execution is interleaved
// with the event calendar such that exactly one proc (or the engine loop)
// runs at a time. All blocking Proc methods must be called from inside the
// proc's own body.
//
// Procs ride iter.Pull coroutines rather than goroutine+channel pairs: a
// park/resume cycle is one direct coroutine switch in each direction (no
// scheduler round trip, no channel locks), which cuts the per-blocking-op
// cost of the engine by several hundred nanoseconds — the dominant term
// of replay- and collective-heavy runs. Semantics are unchanged: the
// engine still guarantees at most one proc (or the dispatch loop) runs at
// any instant, and the event order is identical to the channel-based
// implementation.
type Proc struct {
	eng  *Engine
	name string

	// resume re-enters the coroutine; halt tears it down. yieldFn is
	// assigned by the coroutine body on first entry and switches control
	// back to the engine, returning false once halt has been called.
	resume  func() (struct{}, bool)
	halt    func()
	yieldFn func(struct{}) bool

	// resumeFn is the proc's reusable wake event, allocated once at spawn
	// so Sleep and Wake schedule it without a fresh closure each time.
	resumeFn func()

	next, prev *Proc // intrusive live-proc list
	inList     bool

	state       procState
	wakePending bool
	killed      bool
	parkReason  string
}

// Spawn creates a process named name executing body, starting at Now().
// The body runs in simulation context: it may Sleep and Park.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.SpawnAt(0, name, body)
}

// SpawnAt creates a process that starts after the given delay.
func (e *Engine) SpawnAt(delay units.Time, name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.resumeFn = func() { e.resumeProc(p) }
	p.resume, p.halt = iter.Pull(func(yield func(struct{}) bool) {
		p.yieldFn = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); ok {
					// Killed by Engine.Close: unwind the coroutine
					// without propagating.
					return
				}
				panic(r) // real bug in model code: re-raise to the engine
			}
		}()
		body(p)
	})
	e.procs.push(p)
	// The first resume event starts the body.
	p.wakePending = true
	p.state = procParked
	e.Schedule(delay, p.resumeFn)
	return p
}

// Name returns the proc's name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() units.Time { return p.eng.now }

// resumeProc hands control to a parked proc and regains it when the proc
// parks again or finishes. Must be called from engine context (an event
// function).
func (e *Engine) resumeProc(p *Proc) {
	if p.state != procParked {
		panic(fmt.Sprintf("sim: resume of proc %q in state %d", p.name, p.state))
	}
	p.state = procRunning
	p.wakePending = false
	if _, ok := p.resume(); !ok {
		// The body returned: the proc is finished.
		p.state = procDone
		e.procs.remove(p)
	}
}

// park blocks the calling proc until the engine resumes it.
func (p *Proc) park(reason string) {
	p.state = procParked
	p.parkReason = reason
	if !p.yieldFn(struct{}{}) {
		// halt() was called (Engine.Close): unwind the body.
		p.killed = true
		panic(killSentinel{})
	}
	// The stale reason is left in place: it is only read while parked,
	// and clearing it would cost a write on every resume.
}

// Sleep advances the proc's local time by d; other events and procs run in
// the interim.
func (p *Proc) Sleep(d units.Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: proc %q sleep %v", p.name, d))
	}
	p.wakePending = true
	p.eng.Schedule(d, p.resumeFn)
	p.park("sleeping")
}

// Park blocks the proc until some other party calls Wake. The reason string
// appears in deadlock reports.
func (p *Proc) Park(reason string) {
	p.park(reason)
}

// Wake schedules a parked proc to resume at the current time. It must be
// called from simulation context (another proc or an event callback), and
// panics if the target already has a wake pending or is not parked —
// double wakes are model bugs.
func (p *Proc) Wake() { p.WakeAfter(0) }

// WakeAfter schedules a parked proc to resume after delay d: Wake with a
// timed fuse.
func (p *Proc) WakeAfter(d units.Time) { p.eng.Schedule(d, p.Resumer()) }

// Resumer marks a wake pending on the proc and returns its resume event,
// for an event chain that hands control back to the parked proc (the
// transport's chained transfers): the chain schedules it exactly once,
// at delay d taking the slot WakeAfter(d) would. It panics as Wake does.
func (p *Proc) Resumer() func() {
	if p.state == procDone {
		panic(fmt.Sprintf("sim: wake of finished proc %q", p.name))
	}
	if p.wakePending {
		panic(fmt.Sprintf("sim: double wake of proc %q", p.name))
	}
	p.wakePending = true
	return p.resumeFn
}

// kill unwinds a parked proc's coroutine. Called only from Engine.Close,
// which resets the lists wholesale afterwards.
func (p *Proc) kill() {
	if p.state != procParked {
		return
	}
	p.killed = true
	p.state = procDone
	// halt re-enters the coroutine with yield returning false; park
	// panics killSentinel, the spawn wrapper recovers it, and the
	// coroutine finishes. A proc whose start event never fired has no
	// coroutine frame yet; halt is then a pure teardown.
	p.halt()
}
