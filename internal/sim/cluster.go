package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"roadrunner/internal/units"
)

// Cluster is a conservative, time-windowed parallel harness over several
// Engines ("domains"). Each domain owns its calendar slab, its procs and
// its model state outright; domains advance in lock-step safe windows
// [T, T+lookahead), where T is the earliest pending event across all
// domains and lookahead is the guaranteed minimum latency of any
// cross-domain interaction (for the Roadrunner fabric: the cable + HCA
// floor of transport.CrossDomainLookahead). Inside a window every domain
// runs its own serial event loop — on its own worker goroutine — exactly
// as a lone Engine would; cross-domain events are posted with Send into
// per-(src,dst) bounded queues and exchanged only at window boundaries,
// merged in the deterministic order (timestamp, then source domain id,
// then per-source sequence).
//
// Determinism contract: a cluster run dispatches, per domain, exactly
// the event sequence the same domains produce under any worker count —
// including workers=1 — because domains share no model state (the
// caller's obligation; the race detector enforces it in tests) and the
// boundary merge is a pure function of the events' (time, src, seq)
// keys. The partition-equivalence tests pin this byte-for-byte.
//
// A lookahead of zero declares the domains fully independent: no
// cross-domain events are permitted (Send panics), windows degenerate
// to one, and each domain runs to completion on whichever worker claims
// it. This is the mode the collectives/scenario layers use to run
// independent simulations — separate sweep points, per-CU exchanges,
// replay placements — across cores with results identical to the serial
// loop.
type Cluster struct {
	lookahead units.Time
	doms      []*Engine
	queues    [][]xevent // [src*n+dst] cross-domain events awaiting merge
	sendSeq   []int64    // per-source sequence for the merge order
	bound     int        // per-pair queue capacity

	stats  []DomainStats
	wstats []WorkerStats
	winEnd units.Time // current window's exclusive upper bound

	ran    bool
	failed atomic.Pointer[clusterFailure]
}

// xevent is one cross-domain event awaiting its window boundary.
type xevent struct {
	at  units.Time
	src int32
	seq int64
	fn  func()
}

type clusterFailure struct{ err error }

// DomainStats counts one domain's share of a cluster run. All fields
// are deterministic for a given model and worker count.
type DomainStats struct {
	Events   int64 // events this domain dispatched
	Windows  int64 // safe windows in which it dispatched at least one event
	Sent     int64 // cross-domain events it posted
	Received int64 // cross-domain events merged into its calendar
}

// WorkerStats is one worker goroutine's wall-clock accounting: Busy is
// time spent executing domain windows, Idle is time spent waiting at
// window barriers for slower domains. Wall times vary run to run; they
// are observability output, never simulation input.
type WorkerStats struct {
	Busy time.Duration
	Idle time.Duration
}

// DefaultQueueBound is the per-(src,dst) cross-domain queue capacity: far
// above what any window of a well-formed model posts, so hitting it
// means a runaway send loop rather than a throughput limit.
const DefaultQueueBound = 1 << 20

// NewCluster creates a cluster of n fresh domain engines with the given
// cross-domain lookahead (>= 0; zero means fully independent domains).
func NewCluster(n int, lookahead units.Time) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("sim: cluster of %d domains", n))
	}
	if lookahead < 0 {
		panic(fmt.Sprintf("sim: negative lookahead %v", lookahead))
	}
	c := &Cluster{
		lookahead: lookahead,
		doms:      make([]*Engine, n),
		queues:    make([][]xevent, n*n),
		sendSeq:   make([]int64, n),
		bound:     DefaultQueueBound,
		stats:     make([]DomainStats, n),
	}
	for i := range c.doms {
		c.doms[i] = NewEngine()
	}
	return c
}

// SetQueueBound overrides the per-pair cross-domain queue capacity.
func (c *Cluster) SetQueueBound(n int) {
	if n < 1 {
		panic(fmt.Sprintf("sim: queue bound %d", n))
	}
	c.bound = n
}

// Domains returns the domain count.
func (c *Cluster) Domains() int { return len(c.doms) }

// Domain returns domain i's engine, on which the caller spawns procs and
// schedules events exactly as on a standalone Engine.
func (c *Cluster) Domain(i int) *Engine { return c.doms[i] }

// Stats returns per-domain counters for the finished run.
func (c *Cluster) Stats() []DomainStats { return c.stats }

// WorkerStats returns per-worker wall-clock accounting for the finished
// run (nil before Run).
func (c *Cluster) WorkerStats() []WorkerStats { return c.wstats }

// LookaheadViolation reports a cross-domain send whose delay undercuts
// the cluster's declared lookahead: the receiving domain may already
// have executed past the event's timestamp, so the conservative
// schedule — and bit-identity — would silently break. Send panics with
// it; Run converts the panic to a loud error.
type LookaheadViolation struct {
	Src, Dst  int
	At        units.Time // instant the event would land
	WindowEnd units.Time // exclusive upper bound of the window being executed
	Delay     units.Time
	Lookahead units.Time
}

// Error implements the error interface.
func (v *LookaheadViolation) Error() string {
	return fmt.Sprintf("sim: lookahead violation: domain %d -> %d at %v (window end %v): delay %v < lookahead %v",
		v.Src, v.Dst, v.At, v.WindowEnd, v.Delay, v.Lookahead)
}

// Send posts fn to run on domain dst at the sending domain's now+delay.
// It must be called from model code executing inside domain src (an
// event or proc of that domain), and delay must be at least the
// cluster's lookahead — the guarantee that the event lands at or after
// the current window's end, where the boundary merge delivers it
// deterministically. A delay below the lookahead is a model bug and
// panics with a *LookaheadViolation.
func (c *Cluster) Send(src, dst int, delay units.Time, fn func()) {
	if c.lookahead <= 0 {
		panic("sim: Send on a cluster of independent domains (zero lookahead)")
	}
	at := c.doms[src].now + delay
	if delay < c.lookahead || at < c.winEnd {
		panic(&LookaheadViolation{
			Src: src, Dst: dst, At: at, WindowEnd: c.winEnd,
			Delay: delay, Lookahead: c.lookahead,
		})
	}
	q := src*len(c.doms) + dst
	if len(c.queues[q]) >= c.bound {
		panic(fmt.Sprintf("sim: cross-domain queue %d->%d exceeds bound %d", src, dst, c.bound))
	}
	c.sendSeq[src]++
	c.queues[q] = append(c.queues[q], xevent{at: at, src: int32(src), seq: c.sendSeq[src], fn: fn})
	c.stats[src].Sent++
}

// Run executes every domain to completion on the given number of worker
// goroutines (workers < 1 means one). It returns nil on a clean finish;
// a deadlock in any domain, a lookahead violation or a model panic
// aborts the run with an error. Run may be called once.
func (c *Cluster) Run(workers int) error {
	if c.ran {
		return fmt.Errorf("sim: cluster already ran")
	}
	c.ran = true
	if workers < 1 {
		workers = 1
	}
	if workers > len(c.doms) {
		workers = len(c.doms)
	}
	c.wstats = make([]WorkerStats, workers)

	// Worker pool: each window, workers claim domains off the shared
	// counter, run their windows, and rendezvous; the coordinator (this
	// goroutine) merges boundary queues and opens the next window.
	var (
		claim   atomic.Int64
		active  []int // domains with work this window
		winEnd  units.Time
		whole   bool // zero-lookahead mode: run claimed domains to completion
		startCh = make([]chan struct{}, workers)
		doneCh  = make(chan struct{}, workers)
		wg      sync.WaitGroup
	)
	for w := range startCh {
		startCh[w] = make(chan struct{}, 1)
	}
	worker := func(w int) {
		defer wg.Done()
		idleFrom := time.Now()
		for range startCh[w] {
			start := time.Now()
			c.wstats[w].Idle += start.Sub(idleFrom)
			for c.failed.Load() == nil {
				i := int(claim.Add(1)) - 1
				if i >= len(active) {
					break
				}
				c.runDomain(active[i], winEnd, whole)
			}
			idleFrom = time.Now()
			c.wstats[w].Busy += idleFrom.Sub(start)
			doneCh <- struct{}{}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker(w)
	}
	defer func() {
		for _, ch := range startCh {
			close(ch)
		}
		wg.Wait()
	}()

	for {
		// Merge boundary queues into their destination calendars in the
		// deterministic (timestamp, source domain, source seq) order.
		if err := c.merge(); err != nil {
			return err
		}
		// Next window: the earliest pending event anywhere.
		active = active[:0]
		first := true
		var horizon units.Time
		for i, d := range c.doms {
			if len(d.events) == 0 {
				continue
			}
			if at := d.events[0].at; first || at < horizon {
				horizon, first = at, false
			}
			active = append(active, i)
		}
		if first {
			break // no events anywhere: done (or deadlocked)
		}
		if c.lookahead > 0 {
			winEnd = horizon + c.lookahead
			c.winEnd = winEnd
			// Only domains with events inside the window participate.
			live := active[:0]
			for _, i := range active {
				if c.doms[i].events[0].at < winEnd {
					live = append(live, i)
				}
			}
			active = live
		} else {
			whole = true
		}
		claim.Store(0)
		for _, ch := range startCh {
			ch <- struct{}{}
		}
		for w := 0; w < workers; w++ {
			<-doneCh
		}
		if f := c.failed.Load(); f != nil {
			return f.err
		}
		if whole {
			break // independent domains ran to completion in one pass
		}
	}
	return c.deadlocks()
}

// runDomain executes one domain's share of the current window (or, in
// zero-lookahead mode, the whole remaining run), converting panics —
// lookahead violations, model bugs — into the cluster's failure state
// so Run reports them instead of crashing the host process.
func (c *Cluster) runDomain(i int, winEnd units.Time, whole bool) {
	defer func() {
		if r := recover(); r != nil {
			var err error
			switch v := r.(type) {
			case *LookaheadViolation:
				err = v
			case error:
				err = fmt.Errorf("sim: domain %d: %w", i, v)
			default:
				err = fmt.Errorf("sim: domain %d: panic: %v", i, v)
			}
			c.failed.CompareAndSwap(nil, &clusterFailure{err: err})
		}
	}()
	d := c.doms[i]
	var n int64
	if whole {
		for len(d.events) > 0 {
			ev := d.pop()
			d.now = ev.at
			d.dispatched++
			ev.fn()
			n++
		}
	} else {
		for len(d.events) > 0 && d.events[0].at < winEnd {
			ev := d.pop()
			d.now = ev.at
			d.dispatched++
			ev.fn()
			n++
		}
	}
	if n > 0 {
		c.stats[i].Events += n
		c.stats[i].Windows++
	}
}

// merge drains every cross-domain queue into the destination calendars.
// Per destination, events from all sources are ordered by (timestamp,
// source domain, source seq) and injected in that order, so the
// destination engine assigns them consecutive calendar sequence numbers
// and replays them identically regardless of worker count or which
// source filled its queue first.
func (c *Cluster) merge() error {
	n := len(c.doms)
	var batch []xevent
	for dst := 0; dst < n; dst++ {
		batch = batch[:0]
		for src := 0; src < n; src++ {
			q := src*n + dst
			batch = append(batch, c.queues[q]...)
			c.queues[q] = c.queues[q][:0]
		}
		if len(batch) == 0 {
			continue
		}
		sort.Slice(batch, func(a, b int) bool {
			x, y := &batch[a], &batch[b]
			if x.at != y.at {
				return x.at < y.at
			}
			if x.src != y.src {
				return x.src < y.src
			}
			return x.seq < y.seq
		})
		d := c.doms[dst]
		for _, ev := range batch {
			if ev.at < d.now {
				return fmt.Errorf("sim: cross-domain event for domain %d at %v behind its clock %v (lookahead violated)",
					dst, ev.at, d.now)
			}
			d.At(ev.at, ev.fn)
			c.stats[dst].Received++
		}
	}
	return nil
}

// deadlocks aggregates per-domain deadlock state after the calendars
// drained: any domain with live procs still parked is stuck.
func (c *Cluster) deadlocks() error {
	var all []string
	var t units.Time
	for i, d := range c.doms {
		if d.procs.n == 0 {
			continue
		}
		for p := d.procs.head; p != nil; p = p.next {
			all = append(all, fmt.Sprintf("domain %d: %s (%s)", i, p.name, p.parkReason))
		}
		if d.now > t {
			t = d.now
		}
	}
	if len(all) == 0 {
		return nil
	}
	sort.Strings(all)
	return &DeadlockError{Time: t, Procs: all}
}

// Close tears down every domain engine.
func (c *Cluster) Close() {
	for _, d := range c.doms {
		d.Close()
	}
}
