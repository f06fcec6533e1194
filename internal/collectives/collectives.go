// Package collectives runs MPI collective algorithms as discrete-event
// simulations over the Roadrunner interconnect models: every rank is an
// event-driven walker over its algorithm's per-rank program, and every
// message moves through internal/transport — the fabric model for
// crossbar-hop latency, the ib HCA model for payload streaming, and
// (when the congestion policy is on) link-level channel occupancy over
// the routed cable topology — so protocol overheads, the
// eager/rendezvous switch, near/far core asymmetry, HCA multi-flow
// serialization and uplink contention all shape the collective's timing
// exactly as they shape point-to-point transfers.
//
// A program yields its rank's exchanges one at a time — a send, a recv,
// or a send then a recv — from a few words of state, and the walker
// steps it on calendar events exactly where a blocking rank process
// would resume: after the send's overhead or transfer chain, and at the
// delivery that satisfies a waiting recv. A run spawns no goroutine and
// switches no coroutine.
//
// The package implements the algorithm repertoire an Open MPI of the
// paper's era would choose from — binomial-tree broadcast, a
// recursive-doubling (dissemination) barrier, recursive-doubling,
// Rabenseifner and ring allreduce, ring allgather and pairwise-exchange
// alltoall — each carrying real (small) semantic payloads so reductions
// and gathers are validated end to end, while the modeled wire size is
// set independently so bandwidth regimes can be explored without moving
// gigabytes of host memory.
//
// A Result reports the slowest rank's completion time (the MPI
// convention for collective latency), message and wire-byte counts, and
// the engine's event statistics. Runs are deterministic: the same
// Config, Op and size always produce the same Result.
package collectives

import (
	"fmt"
	"math"
	"slices"

	"roadrunner/internal/batch"
	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/params"
	"roadrunner/internal/sim"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// Op identifies a collective algorithm.
type Op string

// The implemented algorithms.
const (
	BcastBinomial              Op = "bcast-binomial"
	BarrierRecursiveDoubling   Op = "barrier-recursive-doubling"
	AllreduceRecursiveDoubling Op = "allreduce-recursive-doubling"
	AllreduceRabenseifner      Op = "allreduce-rabenseifner"
	AllreduceRing              Op = "allreduce-ring"
	AllgatherRing              Op = "allgather-ring"
	AlltoallPairwise           Op = "alltoall-pairwise"
)

// Ops returns every implemented algorithm, in a stable order.
func Ops() []Op {
	return []Op{
		BcastBinomial,
		BarrierRecursiveDoubling,
		AllreduceRecursiveDoubling,
		AllreduceRabenseifner,
		AllreduceRing,
		AllgatherRing,
		AlltoallPairwise,
	}
}

// Config describes one collective run: the fabric the ranks live on, the
// MPI/IB protocol profile, the rank→node mapping, the link congestion
// policy, and the broadcast root.
type Config struct {
	Fabric  *fabric.System
	Profile ib.Profile
	Places  []transport.Endpoint
	// Congestion selects the transport's link-occupancy model. The zero
	// value is the infinite-capacity fabric, with no link state and no
	// census; transport.Congested() makes concurrent flows on one cable
	// serialize, so the 2:1 taper throttles dense exchanges.
	Congestion transport.Policy
	Root       int // broadcast root rank (0 if unset)
}

// DefaultConfig returns the canonical communicator for the given node
// count: one rank per node on a near core, the Open MPI profile, over
// the smallest fabric that holds them. The scenario sweeps and the
// rrsim/facade one-off runs share this setup so a CLI run reproduces a
// sweep point exactly.
func DefaultConfig(nodes int) (Config, error) {
	return DefaultConfigOn(fabric.DefaultTopology, nodes)
}

// DefaultConfigOn is DefaultConfig over the named fabric topology
// (fabric.Topologies lists them); "fattree" reproduces DefaultConfig
// byte for byte.
func DefaultConfigOn(topology string, nodes int) (Config, error) {
	if nodes < 1 {
		return Config{}, fmt.Errorf("collectives: need at least 1 node, got %d", nodes)
	}
	cus := (nodes + params.NodesPerCU - 1) / params.NodesPerCU
	if cus > params.NumCUs {
		return Config{}, fmt.Errorf("collectives: %d nodes exceed the %d-CU machine", nodes, params.NumCUs)
	}
	fab, err := fabric.NewTopologyScaled(topology, cus)
	if err != nil {
		return Config{}, err
	}
	places, err := transport.BlockPlacement(fab, nodes, 1)
	if err != nil {
		return Config{}, err
	}
	return Config{Fabric: fab, Profile: ib.OpenMPI(), Places: places}, nil
}

// CongestedConfig is DefaultConfig with the wormhole congestion policy:
// every message is routed over the cable topology and concurrent flows
// crossing the same link serialize.
func CongestedConfig(nodes int) (Config, error) {
	return CongestedConfigOn(fabric.DefaultTopology, nodes)
}

// CongestedConfigOn is DefaultConfigOn with the wormhole congestion
// policy.
func CongestedConfigOn(topology string, nodes int) (Config, error) {
	cfg, err := DefaultConfigOn(topology, nodes)
	if err != nil {
		return Config{}, err
	}
	cfg.Congestion = transport.Congested()
	return cfg, nil
}

// Result is the outcome of one collective operation.
type Result struct {
	Op    Op
	Ranks int
	// Size is the per-rank payload in bytes (the collective's message
	// size parameter; see each algorithm for what it denotes).
	Size units.Size
	// Time is the completion time of the slowest rank, the MPI
	// convention for collective latency.
	Time units.Time
	// MinTime is the completion time of the fastest rank.
	MinTime units.Time
	// Messages counts every point-to-point message the algorithm sent;
	// WireBytes counts the modeled payload bytes that actually crossed
	// the fabric (intra-node shared-memory messages excluded).
	Messages  int64
	WireBytes units.Size
	// Data holds each rank's final semantic payload (validated against
	// the collective's definition before Run returns).
	Data [][]float64
	// EngineStats snapshots the DES engine after the run.
	EngineStats sim.Stats
	// Congestion is the transport's link-occupancy census (nil when the
	// run used the infinite-capacity PR 2 fabric).
	Congestion *transport.Census
}

// Bandwidth returns the effective per-rank bandwidth Size/Time, the
// usual way collective microbenchmarks report large-message performance.
func (r *Result) Bandwidth() units.Bandwidth {
	if r.Time <= 0 {
		return 0
	}
	return units.Bandwidth(float64(r.Size) / r.Time.Seconds())
}

// comm is the per-run communicator: the rank walkers, the transport net
// moving the modeled bytes, and the free list of in-flight messages.
type comm struct {
	eng   *sim.Engine
	cfg   Config
	net   *transport.Net
	ranks []rank
	done  int     // ranks whose program ended
	free  *flight // recycled in-flight messages
}

// arrival is a delivered message a rank has not received yet.
type arrival struct {
	src, tag int
	data     payload
}

// flight is one message in transit to rank dst. Its delivery event is
// bound once, and flights recycle through the comm's free list, so the
// send/recv hot path — millions of messages in a full-machine alltoall —
// allocates nothing beyond a vector payload.
type flight struct {
	c         *comm
	dst       int
	msg       arrival
	deliverFn func()
	next      *flight
}

// deliver queues the message at its rank and recycles the flight. A rank
// blocked in a recv steps at once to re-match, whether or not the
// message is the one it waits for.
func (f *flight) deliver() {
	c, w := f.c, &f.c.ranks[f.dst]
	w.queue = append(w.queue, f.msg)
	f.msg, f.next, c.free = arrival{}, c.free, f
	if w.waiting {
		w.waiting = false
		w.wake(0)
	}
}

// rank walks one rank's program as an event-driven state machine: x is
// the exchange in progress, and pend or fl the send the next step must
// finish before the walk goes on. A walk leaves one way back in
// whenever it stops: a scheduled step, a transfer chain that ends by
// scheduling it, or — blocked in a recv — the next delivery to the
// rank, which schedules it at delay 0. Each step takes the calendar slot
// of a blocking rank process's resume: its start, the end of its send,
// or its mailbox wake.
type rank struct {
	c    *comm
	id   int
	prog program
	x    exchange
	// armed: a step is scheduled, or a chain will schedule one.
	armed, waiting bool // waiting: blocked in x's recv

	pend   *transport.Pending // x's chained send, in flight
	fl     *flight            // x's short send, awaiting its delivery
	after  units.Time         // ... after this delay
	queue  []arrival          // delivered, not yet received; arrival order
	finish units.Time         // when the program ended

	stepFn func() // bound once: the step event
}

func newComm(eng *sim.Engine, cfg Config, algo algorithm, size units.Size) *comm {
	n := len(cfg.Places)
	c := &comm{
		eng:   eng,
		cfg:   cfg,
		net:   transport.New(eng, cfg.Fabric, cfg.Profile, cfg.Congestion),
		ranks: make([]rank, n),
	}
	// Every rank's first step runs at delay 0, in rank order.
	for r := range c.ranks {
		w := &c.ranks[r]
		w.c, w.id, w.prog = c, r, algo(r, n, cfg.Root, size)
		w.stepFn = w.step
		w.wake(0)
	}
	return c
}

// arm claims the rank's one pending step; a second is an engine bug.
func (w *rank) arm() {
	if w.armed {
		panic(fmt.Sprintf("collectives: rank %d: second pending step", w.id))
	}
	w.armed = true
}

// wake schedules the rank's next step after d.
func (w *rank) wake(d units.Time) {
	w.arm()
	w.c.eng.Schedule(d, w.stepFn)
}

// step is the rank's calendar event: it finishes the send in progress,
// then walks on.
func (w *rank) step() {
	w.armed = false
	if w.pend != nil {
		w.c.net.FinishTransfer(w.pend)
		w.pend = nil
	} else if w.fl != nil {
		w.c.eng.Schedule(w.after, w.fl.deliverFn)
		w.fl = nil
	}
	w.run()
}

// run finishes the exchange in progress — its recv, if any — and walks
// the program on until a send takes simulated time, a recv finds no
// match, or the program ends.
func (w *rank) run() {
	for {
		if w.x.recv {
			in, ok := w.take()
			if !ok {
				w.waiting = true
				return
			}
			w.x.recv = false
			w.fold(in)
		}
		if !w.prog.next(&w.x) {
			w.finish = w.c.eng.Now()
			w.c.done++
			return
		}
		if w.x.send {
			w.send()
			return
		}
	}
}

// take removes the first queued message matching the recv's source and
// tag, in arrival order.
func (w *rank) take() (payload, bool) {
	for i, m := range w.queue {
		if m.src == w.x.src && m.tag == w.x.tag {
			w.queue = slices.Delete(w.queue, i, i+1)
			return m.data, true
		}
	}
	return payload{}, false
}

// fold lands a received payload in the rank's vector as the exchange
// says.
func (w *rank) fold(in payload) {
	out, i := w.prog.out, w.x.into
	switch w.x.fold {
	case addVal:
		out[i] += in.val
	case setVal:
		out[i] = in.val
	case addVec:
		addInto(out[i:], in.vec)
	case setVec:
		copy(out[i:], in.vec)
	}
}

// send starts x's send over the transport: an inter-node message with a
// payload streams as a transfer chain that ends by scheduling the rank's
// step; an intra-node or zero-size one steps the rank after the
// sender-side overhead and schedules its delivery from there.
func (w *rank) send() {
	c := w.c
	fl := c.free
	if fl == nil {
		fl = &flight{c: c}
		fl.deliverFn = fl.deliver
	} else {
		c.free = fl.next
		fl.next = nil
	}
	fl.dst = w.x.dst
	fl.msg = arrival{src: w.id, tag: w.x.tag, data: w.x.data}
	src, dst := c.cfg.Places[w.id], c.cfg.Places[w.x.dst]
	if w.x.size > 0 && src.Node != dst.Node {
		w.arm()
		w.pend = c.net.StartTransfer(src, dst, w.x.size, fl.deliverFn, w.stepFn)
		return
	}
	send, after := c.net.ShortTransfer(src, dst, w.x.size)
	w.fl, w.after = fl, after
	w.wake(send)
}

// deadlock reports the ranks left waiting in a recv when the calendar
// emptied, the way the engine reports blocked processes.
func (c *comm) deadlock() error {
	d := &sim.DeadlockError{Time: c.eng.Now()}
	for r := range c.ranks {
		if w := &c.ranks[r]; w.waiting {
			d.Procs = append(d.Procs, fmt.Sprintf("rank%d (recv from %d tag %d)", r, w.x.src, w.x.tag))
		}
	}
	return d
}

// contribution is rank r's semantic input for element i. The values are
// integers (represented exactly in float64 up to the full machine's rank
// count), so reduction results are exact and order-independent and the
// validators can compare with ==.
func contribution(r, i int) float64 { return float64((r+1)*1000003 + i*7919) }

// reducedValue is the expected allreduce result for element i over p
// ranks: sum_r contribution(r, i).
func reducedValue(p, i int) float64 {
	return float64(1000003)*float64(p)*float64(p+1)/2 + float64(p)*float64(i*7919)
}

// checkConfig validates what every entry point builds its comms from:
// at least one rank, a root among them, a fabric, and every rank on a
// node inside that fabric and on a real Opteron core.
func checkConfig(cfg Config) error {
	ranks := len(cfg.Places)
	if ranks == 0 {
		return fmt.Errorf("collectives: no ranks placed")
	}
	if cfg.Root < 0 || cfg.Root >= ranks {
		return fmt.Errorf("collectives: root %d outside %d ranks", cfg.Root, ranks)
	}
	if cfg.Fabric == nil {
		return fmt.Errorf("collectives: nil fabric")
	}
	if err := transport.CheckPlaces(cfg.Fabric, cfg.Places); err != nil {
		return fmt.Errorf("collectives: %w", err)
	}
	return nil
}

// Run executes one collective on a fresh engine and returns its Result.
// The run is deterministic and self-validating: reductions, gathers and
// broadcasts check their semantic payloads against the collective's
// definition and fail loudly on any algorithm bug.
func Run(cfg Config, op Op, size units.Size) (*Result, error) {
	algo, err := check(cfg, op, size)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	c := newComm(eng, cfg, algo, size)
	err = eng.Run()
	if err == nil && c.done < len(c.ranks) {
		err = c.deadlock()
	}
	if err != nil {
		return nil, fmt.Errorf("collectives: %s over %d ranks: %w", op, len(cfg.Places), err)
	}
	out := make([][]float64, len(c.ranks))
	for r := range out {
		out[r] = c.ranks[r].prog.out
	}
	if err := validate(op, cfg, out); err != nil {
		return nil, err
	}
	return c.result(op, size, out, eng.Stats()), nil
}

// check validates a run's inputs and returns its algorithm.
func check(cfg Config, op Op, size units.Size) (algorithm, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	if size < 0 {
		return nil, fmt.Errorf("collectives: negative size %d", size)
	}
	algo, ok := algorithms[op]
	if !ok {
		return nil, fmt.Errorf("collectives: unknown op %q (have %v)", op, Ops())
	}
	return algo, nil
}

// Request is one independent collective run, for RunMany.
type Request struct {
	Cfg  Config
	Op   Op
	Size units.Size
}

// RunMany executes independent collective runs concurrently and
// returns their Results in request order. It validates every request
// first, then runs them on batch.Run (workers < 1 uses GOMAXPROCS), each
// on a fresh engine, so at most workers runs hold simulation state at
// once. Runs share no state, so every Result is byte-identical to Run's
// for the same request at any worker count.
//
// A failed run — an error, a deadlock, or a panic inside the run, which
// comes back as an error instead of crashing the process — stops the
// batch, and the error returned is the one of the lowest-index failed
// request, the same at every worker count.
func RunMany(reqs []Request, workers int) ([]*Result, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("collectives: no requests")
	}
	for i, rq := range reqs {
		if _, err := check(rq.Cfg, rq.Op, rq.Size); err != nil {
			return nil, fmt.Errorf("collectives: request %d: %w", i, err)
		}
	}
	results := make([]*Result, len(reqs))
	if i, err := batch.Run(len(reqs), workers, func(_, i int) (err error) {
		results[i], err = Run(reqs[i].Cfg, reqs[i].Op, reqs[i].Size)
		return err
	}); err != nil {
		return nil, fmt.Errorf("collectives: request %d: %w", i, err)
	}
	return results, nil
}

// censusTop is how many contended links a Result's census retains.
const censusTop = 10

// result assembles a Result from the transport's counters.
func (c *comm) result(op Op, size units.Size, out [][]float64, st sim.Stats) *Result {
	res := &Result{
		Op:          op,
		Ranks:       len(c.cfg.Places),
		Size:        size,
		Messages:    c.net.Messages(),
		WireBytes:   c.net.WireBytes(),
		Data:        out,
		EngineStats: st,
		Congestion:  c.net.Census(censusTop),
	}
	res.MinTime = units.Time(math.MaxInt64)
	for i := range c.ranks {
		f := c.ranks[i].finish
		if f > res.Time {
			res.Time = f
		}
		if f < res.MinTime {
			res.MinTime = f
		}
	}
	return res
}

// validate checks each rank's final semantic payload against the
// collective's definition.
func validate(op Op, cfg Config, out [][]float64) error {
	p := len(cfg.Places)
	fail := func(r int, msg string, args ...any) error {
		return fmt.Errorf("collectives: %s over %d ranks: rank %d: %s",
			op, p, r, fmt.Sprintf(msg, args...))
	}
	switch op {
	case BarrierRecursiveDoubling:
		return nil
	case BcastBinomial:
		for r := range out {
			if len(out[r]) != semanticLen {
				return fail(r, "payload length %d", len(out[r]))
			}
			for i, v := range out[r] {
				if want := contribution(cfg.Root, i); v != want {
					return fail(r, "element %d = %v, want %v", i, v, want)
				}
			}
		}
	case AllreduceRecursiveDoubling, AllreduceRabenseifner:
		for r := range out {
			if len(out[r]) != semanticLen {
				return fail(r, "payload length %d", len(out[r]))
			}
			for i, v := range out[r] {
				if want := reducedValue(p, i); v != want {
					return fail(r, "element %d = %v, want %v", i, v, want)
				}
			}
		}
	case AllreduceRing:
		for r := range out {
			if len(out[r]) != p {
				return fail(r, "payload length %d, want %d", len(out[r]), p)
			}
			for i, v := range out[r] {
				if want := reducedValue(p, i); v != want {
					return fail(r, "segment %d = %v, want %v", i, v, want)
				}
			}
		}
	case AllgatherRing:
		for r := range out {
			if len(out[r]) != p {
				return fail(r, "payload length %d, want %d", len(out[r]), p)
			}
			for i, v := range out[r] {
				if want := contribution(i, 0); v != want {
					return fail(r, "block %d = %v, want %v", i, v, want)
				}
			}
		}
	case AlltoallPairwise:
		for r := range out {
			if len(out[r]) != p {
				return fail(r, "payload length %d, want %d", len(out[r]), p)
			}
			for s, v := range out[r] {
				if want := contribution(s, r); v != want {
					return fail(r, "block from %d = %v, want %v", s, v, want)
				}
			}
		}
	default:
		return fmt.Errorf("collectives: no validator for %q", op)
	}
	return nil
}
