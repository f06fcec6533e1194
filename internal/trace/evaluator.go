package trace

import (
	"fmt"
	"slices"

	"roadrunner/internal/fabric"
	"roadrunner/internal/sim"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// Evaluator is the batch replay evaluation path: everything a replay
// repeats across placements — trace validation, the compiled record
// streams, the sim engine with its rank walkers, the transport's HCA and
// link state and the per-send delivery events — is built once, and each
// Evaluate call replays the trace under a new rank→node mapping on the
// pooled state. The placement optimizer calls the replay tens of
// thousands of times; paying validation (O(records) map churn) and
// engine/transport construction per call would dominate the search, so
// the evaluator turns the replay from a one-shot reporter into a
// search-grade objective function.
//
// The record streams are compiled to a compact op array per rank:
// one cache line holds three ops instead of one-and-a-half records, the
// kind dispatch is a byte instead of a string compare, compute
// durations carry the configured scaling pre-applied, and compute ops
// are dropped entirely under SkipCompute. Each rank's stream is walked
// by an event-driven state machine (walker), not a sim proc, so an
// evaluation spawns no goroutine and switches no coroutine; it allocates
// only the result.
//
// Evaluate(places) is pinned byte-identical to a fresh Replay call with
// the same config and placement (TestEvaluatorMatchesFreshReplay): the
// pooled engine resets to time zero with the same event ordering, the
// transport zeroes every counter, and the route cache only memoizes
// wiring facts. An Evaluator is single-goroutine; run one per worker
// for parallel search.
type Evaluator struct {
	tr  *Trace
	cfg ReplayConfig

	eng     *sim.Engine
	net     *transport.Net
	walkers []walker // one per rank
	deliver []func() // per-send delivery events, canonical send order
	nSends  int

	// Per-evaluation state the walkers read.
	places    []transport.Endpoint
	sends     []MessageTiming // nil unless ObserveSends
	sendsBuf  []MessageTiming // reusable backing for sends
	res       *ReplayResult
	ranksDone int
	err       error

	used   bool // at least one Evaluate ran: reset and relaunch next time
	closed bool
}

// The compiled op kinds.
const (
	opCompute = iota
	opSend
	opRecv
	// opComputeSend is a compute record whose next record is its rank's
	// send: the compute's end event starts the send's transfer chain,
	// so the walker steps once for the pair, on an unchanged calendar.
	// Intra-node and zero-size sends have no chain and run unfused.
	opComputeSend
)

// replayOp is one compiled record: just the fields the walker's hot
// loop touches, 40 bytes instead of a 104-byte Record.
type replayOp struct {
	op   uint8
	peer int32 // send destination / recv source rank
	tag  int32
	// aux is the send's Sends slot, or the recv's expected dep seq.
	aux  int32
	size units.Size
	dur  units.Time // compute duration, scaling pre-applied
}

// walker replays one rank's op stream as an event-driven state machine:
// pc indexes the op being executed, and at names what the next step
// must finish before the walk goes on.
// run walks until an op takes simulated time, leaving one way back in:
// a scheduled step, a transfer chain that ends by scheduling it, or —
// blocked in a recv — the next delivery to the rank, which schedules it
// at delay 0. Each step takes the calendar slot of a blocking proc's
// resume on the same stream: the sleep's, the chain's or the mailbox's.
type walker struct {
	e      *Evaluator
	rank   int
	stream []replayOp
	pc     int
	at     uint8 // resume point: atRun, atTransfer or atShort
	// armed: a step is scheduled, or a chain will schedule one.
	armed, waiting bool // waiting: blocked in a recv

	x     *transport.Pending // the send's in-flight chain (atTransfer)
	after units.Time         // the short send's delivery delay (atShort)
	queue []replayMsg        // delivered, not yet received; arrival order

	stepFn, issueFn func() // bound once: the step event, the fused chain start
}

// Walker resume points.
const (
	atRun      = iota // continue at pc
	atTransfer        // the chained send at pc completed: run its tail
	atShort           // the short send at pc completed: schedule its delivery
)

// NewEvaluator validates the trace once and builds the pooled replay
// state for it. The config's Places field is ignored — the placement is
// the argument of each Evaluate call; everything else (fabric, profile,
// congestion policy, compute scaling, observers) is fixed for the
// evaluator's lifetime. Close releases the engine when done.
func NewEvaluator(t *Trace, cfg ReplayConfig) (*Evaluator, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if cfg.Fabric == nil {
		return nil, fmt.Errorf("trace: replay: nil fabric")
	}
	scale, err := computeScale(cfg.ComputeScale)
	if err != nil {
		return nil, err
	}
	ranks := t.Meta.Ranks
	e := &Evaluator{tr: t, cfg: cfg}

	// Compile the per-rank streams: canonical order, send slots dense in
	// record order, compute ops pre-scaled (or dropped under
	// SkipCompute — replay never branches on the flag again).
	streams := make([][]replayOp, ranks)
	var ops []replayOp // one backing array, sliced per rank
	for i, r := range t.Records {
		switch r.Kind {
		case KindCompute:
			if cfg.SkipCompute {
				continue
			}
			op := uint8(opCompute)
			if i+1 < len(t.Records) && t.Records[i+1].Rank == r.Rank && t.Records[i+1].Kind == KindSend {
				op = opComputeSend
			}
			ops = append(ops, replayOp{op: op,
				dur: units.Time(float64(r.Duration) * scale)})
		case KindSend:
			ops = append(ops, replayOp{op: opSend, peer: int32(r.Peer),
				tag: int32(r.Tag), aux: int32(e.nSends), size: r.Size})
			e.nSends++
		case KindRecv:
			ops = append(ops, replayOp{op: opRecv, peer: int32(r.Peer),
				tag: int32(r.Tag), aux: int32(r.Dep)})
		}
	}
	start := 0
	ri := 0
	for i, r := range t.Records {
		if !(r.Kind == KindCompute && cfg.SkipCompute) {
			ri++
		}
		if i+1 == len(t.Records) || t.Records[i+1].Rank != r.Rank {
			streams[r.Rank] = ops[start:ri:ri]
			start = ri
		}
	}

	e.eng = sim.NewEngine()
	e.net = transport.New(e.eng, cfg.Fabric, cfg.Profile, cfg.Policy)
	e.walkers = make([]walker, ranks)
	for rank := range e.walkers {
		w := &e.walkers[rank]
		w.e, w.rank, w.stream = e, rank, streams[rank]
		w.stepFn, w.issueFn = w.step, w.issue
	}

	// One delivery event per send record, allocated once: the closure
	// reads the evaluator's per-evaluation observer state, so reuse
	// never re-captures anything.
	e.deliver = make([]func(), e.nSends)
	slot := 0
	for _, r := range t.Records {
		if r.Kind != KindSend {
			continue
		}
		s := slot
		slot++
		msg := replayMsg{src: r.Rank, tag: r.Tag, seq: r.Seq}
		w := &e.walkers[r.Peer]
		e.deliver[s] = func() {
			if e.sends != nil {
				e.sends[s].Delivered = e.eng.Now()
			}
			w.arrive(msg)
		}
	}

	e.launch() // later evaluations relaunch after the engine reset
	return e, nil
}

// launch schedules every walker's first step at delay 0, in rank order.
func (e *Evaluator) launch() {
	for i := range e.walkers {
		w := &e.walkers[i]
		w.pc, w.at, w.waiting = 0, atRun, false
		w.queue = w.queue[:0]
		w.wake(0)
	}
}

// arm claims the walker's one pending step; a second is an engine bug.
func (w *walker) arm() {
	if w.armed {
		panic(fmt.Sprintf("trace: replay rank %d: second pending step", w.rank))
	}
	w.armed = true
}

// wake schedules the walker's next step after d.
func (w *walker) wake(d units.Time) {
	w.arm()
	w.e.eng.Schedule(d, w.stepFn)
}

// arrive queues a delivered payload and, if the walker is blocked in a
// recv, steps it at once to re-match.
func (w *walker) arrive(m replayMsg) {
	w.queue = append(w.queue, m)
	if w.waiting {
		w.waiting = false
		w.wake(0)
	}
}

// step is the walker's calendar event: it finishes what the op at pc
// was waiting for, then walks on.
func (w *walker) step() {
	w.armed = false
	switch w.at {
	case atTransfer:
		w.e.net.FinishTransfer(w.x)
		w.x = nil
		w.sent()
	case atShort:
		w.e.eng.Schedule(w.after, w.e.deliver[w.stream[w.pc].aux])
		w.sent()
	}
	w.at = atRun
	w.run()
}

// sent stamps the send at pc as returned and moves past it.
func (w *walker) sent() {
	if w.e.sends != nil {
		w.e.sends[w.stream[w.pc].aux].SendEnd = w.e.eng.Now()
	}
	w.pc++
}

// run executes ops from pc until one takes simulated time or the stream
// ends.
func (w *walker) run() {
	e := w.e
	for w.pc < len(w.stream) {
		o := &w.stream[w.pc]
		switch o.op {
		case opCompute:
			w.pc++
			w.wake(o.dur)
			return
		case opComputeSend:
			w.pc++
			if w.chained(&w.stream[w.pc]) {
				w.arm()
				w.at = atTransfer
				e.eng.Schedule(o.dur, w.issueFn)
			} else {
				w.wake(o.dur)
			}
			return
		case opSend:
			if w.chained(o) {
				w.arm()
				w.at = atTransfer
				w.issue()
				return
			}
			w.stampStart(o)
			send, after := e.net.ShortTransfer(e.places[w.rank], e.places[o.peer], o.size)
			w.at, w.after = atShort, after
			w.wake(send)
			return
		case opRecv:
			if !w.take(o) {
				w.waiting = true
				return
			}
			w.pc++
		}
	}
	e.res.RankFinish[w.rank] = e.eng.Now()
	e.ranksDone++
}

// take removes the first queued payload matching the recv's source and
// tag, and checks it is the send the trace's dep names.
func (w *walker) take(o *replayOp) bool {
	for i, m := range w.queue {
		if m.src != int(o.peer) || m.tag != int(o.tag) {
			continue
		}
		w.queue = slices.Delete(w.queue, i, i+1)
		if m.seq != int(o.aux) {
			// Validate guarantees FIFO matching; reaching here is an
			// engine-level bug, not a trace error.
			w.e.fail(fmt.Errorf("trace: replay: rank %d recv from %d tag %d satisfied by send seq %d, dep says %d",
				w.rank, o.peer, o.tag, m.seq, o.aux))
		}
		return true
	}
	return false
}

// issue stamps the send at pc and starts its transfer chain, which
// ends by scheduling the walker's step.
func (w *walker) issue() {
	e := w.e
	o := &w.stream[w.pc]
	w.stampStart(o)
	w.x = e.net.StartTransfer(e.places[w.rank], e.places[o.peer], o.size, e.deliver[o.aux], w.stepFn)
}

// chained reports whether send o streams as a transfer chain;
// intra-node and zero-size sends are short.
func (w *walker) chained(o *replayOp) bool {
	return o.size > 0 && w.e.places[w.rank].Node != w.e.places[o.peer].Node
}

// stampStart records send o's identity and issue instant when per-send
// timing is observed.
func (w *walker) stampStart(o *replayOp) {
	if s := w.e.sends; s != nil {
		mt := &s[o.aux]
		mt.SrcRank, mt.DstRank = w.rank, int(o.peer)
		mt.Tag, mt.Size = int(o.tag), o.size
		mt.SendStart = w.e.eng.Now()
	}
}

// fail records the first replay-invariant violation.
func (e *Evaluator) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Trace returns the trace the evaluator replays.
func (e *Evaluator) Trace() *Trace { return e.tr }

// Evaluate replays the trace under the given rank→node placement and
// returns the result. The config's Observe flags decide how much of it
// is populated: the makespan, rank finish times and transport counters
// always are; per-send timing and the link census only when requested —
// the optimizer's inner loop pays only for what it reads.
func (e *Evaluator) Evaluate(places []transport.Endpoint) (*ReplayResult, error) {
	if e.closed {
		return nil, fmt.Errorf("trace: replay: evaluator is closed")
	}
	if err := validatePlaces(e.tr, e.cfg.Fabric, places); err != nil {
		return nil, err
	}
	if e.used {
		e.eng.Reset()
		e.net.Reset()
		e.launch()
	}
	e.used = true
	e.places = places
	e.err = nil
	e.ranksDone = 0
	if e.cfg.Observe&ObserveSends != 0 {
		if e.sendsBuf == nil {
			e.sendsBuf = make([]MessageTiming, e.nSends)
		} else {
			clear(e.sendsBuf)
		}
		e.sends = e.sendsBuf
	} else {
		e.sends = nil
	}
	res := &ReplayResult{
		Name:       e.tr.Meta.Name,
		Ranks:      e.tr.Meta.Ranks,
		RankFinish: make([]units.Time, e.tr.Meta.Ranks),
	}
	e.res = res
	if err := e.eng.Run(); err != nil {
		e.Close()
		return nil, fmt.Errorf("trace: replay %s: %w", e.tr.Meta.Name, err)
	}
	if e.err != nil {
		return nil, e.err
	}
	if e.ranksDone != e.tr.Meta.Ranks {
		// A validated trace always completes; a stalled walker is an
		// engine-level bug, and the pooled state is unusable. The engine
		// has no procs to report deadlocked, so only this count shows it.
		e.Close()
		return nil, fmt.Errorf("trace: replay %s: %d of %d ranks completed",
			e.tr.Meta.Name, e.ranksDone, e.tr.Meta.Ranks)
	}
	for _, f := range res.RankFinish {
		if f > res.Time {
			res.Time = f
		}
	}
	res.Messages = e.net.Messages()
	res.WireBytes = e.net.WireBytes()
	if e.sends != nil {
		res.Sends = make([]MessageTiming, e.nSends)
		copy(res.Sends, e.sends)
		e.sends = nil
	}
	if e.cfg.Observe&ObserveCensus != 0 {
		res.Congestion = e.net.Census(replayCensusTop)
	}
	res.EngineStats = e.eng.Stats()
	e.res = nil
	return res, nil
}

// Close releases the evaluator's engine. The evaluator is unusable
// afterwards; Close is idempotent.
func (e *Evaluator) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.eng.Close()
}

// validatePlaces checks a placement against the trace and fabric the
// way Replay always has: every rank placed, on a node inside the
// fabric, on a real Opteron core.
func validatePlaces(t *Trace, fab *fabric.System, places []transport.Endpoint) error {
	if len(places) != t.Meta.Ranks {
		return fmt.Errorf("trace: replay: %d placements for %d ranks", len(places), t.Meta.Ranks)
	}
	for r, pl := range places {
		if !fab.Contains(pl.Node) {
			return fmt.Errorf("trace: replay: rank %d placed on %v outside the %d-node fabric",
				r, pl.Node, fab.Nodes())
		}
		if pl.Core < 0 || pl.Core > 3 {
			return fmt.Errorf("trace: replay: rank %d on core %d (want 0..3)", r, pl.Core)
		}
	}
	return nil
}
