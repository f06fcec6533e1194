// Package collectives runs MPI collective algorithms as discrete-event
// processes over the Roadrunner interconnect models: every rank is a
// sim.Proc, and every message moves through internal/transport — the
// fabric model for crossbar-hop latency, the ib HCA model for payload
// streaming, and (when the congestion policy is on) link-level channel
// occupancy over the routed cable topology — so protocol overheads, the
// eager/rendezvous switch, near/far core asymmetry, HCA multi-flow
// serialization and uplink contention all shape the collective's timing
// exactly as they shape point-to-point transfers.
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

// Placement locates one rank on the machine: the node it runs on and the
// Opteron core it issues MPI calls from (HCA proximity per Fig. 8).
type Placement struct {
	Node fabric.NodeID
	Core int
}

// BlockPlacement places ranks on consecutive nodes in global order, one
// rank per node, all on the given Opteron core. This is the natural
// MPI rank order of Fig. 10's latency map.
func BlockPlacement(fab *fabric.System, ranks, core int) []Placement {
	if ranks > fab.Nodes() {
		panic(fmt.Sprintf("collectives: %d ranks exceed %d nodes", ranks, fab.Nodes()))
	}
	out := make([]Placement, ranks)
	for i := range out {
		out[i] = Placement{Node: fabric.FromGlobal(i), Core: core}
	}
	return out
}

// StridedPlacement places rank i on global node (i*stride) mod the node
// count. HPL's process rows and columns map onto the machine this way: a
// row of a column-major P×Q grid is ranks {r, r+P, r+2P, ...}, i.e. a
// stride-P walk across nodes, which spreads one communicator over many
// CUs.
func StridedPlacement(fab *fabric.System, ranks, stride, core int) []Placement {
	if ranks > fab.Nodes() {
		panic(fmt.Sprintf("collectives: %d ranks exceed %d nodes", ranks, fab.Nodes()))
	}
	if stride < 1 {
		panic("collectives: stride < 1")
	}
	n := fab.Nodes()
	out := make([]Placement, ranks)
	seen := make(map[int]bool, ranks)
	g := 0
	for i := range out {
		for seen[g%n] {
			// Stride wrapped onto an occupied node: advance to the next
			// free one so every rank still gets its own HCA.
			g++
		}
		seen[g%n] = true
		out[i] = Placement{Node: fabric.FromGlobal(g % n), Core: core}
		g += stride
	}
	return out
}

// PackedPlacement places perNode ranks on each node, on cores
// 0..perNode-1, so a communicator mixes near (1, 3) and far (0, 2) HCA
// cores and shares each node's adapter among its local ranks.
func PackedPlacement(fab *fabric.System, ranks, perNode int) []Placement {
	if perNode < 1 || perNode > 4 {
		panic("collectives: perNode outside 1..4")
	}
	if (ranks+perNode-1)/perNode > fab.Nodes() {
		panic(fmt.Sprintf("collectives: %d ranks at %d/node exceed %d nodes",
			ranks, perNode, fab.Nodes()))
	}
	out := make([]Placement, ranks)
	for i := range out {
		out[i] = Placement{Node: fabric.FromGlobal(i / perNode), Core: i % perNode}
	}
	return out
}

// Config describes one collective run: the fabric the ranks live on, the
// MPI/IB protocol profile, the rank→node mapping, the link congestion
// policy, and the broadcast root.
type Config struct {
	Fabric  *fabric.System
	Profile ib.Profile
	Places  []Placement
	// Congestion selects the transport's link-occupancy model. The zero
	// value keeps the PR 2 infinite-capacity path;
	// transport.Congested() makes concurrent flows on one cable
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
	return Config{
		Fabric:  fab,
		Profile: ib.OpenMPI(),
		Places:  BlockPlacement(fab, nodes, 1),
	}, nil
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

// comm is the per-run communicator state shared by all rank procs: the
// mailboxes carrying semantic payloads, and the transport net moving the
// modeled bytes.
type comm struct {
	eng    *sim.Engine
	cfg    Config
	net    *transport.Net
	inbox  []*sim.Mailbox[*message]
	finish []units.Time

	// Message recycling and match state. Messages pool through a free
	// list with their delivery closure bound once, and each rank's
	// receive predicate is bound once over per-rank match slots, so the
	// send/recv hot path — millions of messages in a full-machine
	// alltoall — allocates nothing beyond the semantic payload.
	freeMsg  *message
	matchSrc []int
	matchTag []int
	preds    []func(*message) bool
}

// message is one in-flight point-to-point transfer inside a collective.
type message struct {
	src  int
	tag  int
	size units.Size
	data []float64

	box     *sim.Mailbox[*message] // destination inbox of the current flight
	deliver func()                 // bound once: box.Put(this)
	next    *message               // free-list link
}

func newComm(eng *sim.Engine, cfg Config) *comm {
	ranks := len(cfg.Places)
	c := &comm{
		eng:      eng,
		cfg:      cfg,
		net:      transport.New(eng, cfg.Fabric, cfg.Profile, cfg.Congestion),
		inbox:    make([]*sim.Mailbox[*message], ranks),
		finish:   make([]units.Time, ranks),
		matchSrc: make([]int, ranks),
		matchTag: make([]int, ranks),
		preds:    make([]func(*message) bool, ranks),
	}
	for i := range cfg.Places {
		c.inbox[i] = sim.NewMailbox[*message](eng, fmt.Sprintf("coll-rank%d", i))
		i := i
		c.preds[i] = func(m *message) bool {
			return m.src == c.matchSrc[i] && m.tag == c.matchTag[i]
		}
	}
	return c
}

// getMsg pops a pooled message (allocating, with its delivery closure,
// on first use).
func (c *comm) getMsg() *message {
	m := c.freeMsg
	if m == nil {
		m = &message{}
		m.deliver = func() { m.box.Put(m) }
		return m
	}
	c.freeMsg = m.next
	m.next = nil
	return m
}

// putMsg returns a delivered-and-consumed message to the pool.
func (c *comm) putMsg(m *message) {
	m.data = nil
	m.box = nil
	m.next = c.freeMsg
	c.freeMsg = m
}

// send transmits a message from src to dst over the transport, blocking
// the calling proc for the sender-side costs (software overhead, the
// rendezvous round trip, link admission, the HCA stream); the payload is
// delivered to dst's mailbox after the fabric traversal and the
// receive-side overhead.
func (c *comm) send(p *sim.Proc, src, dst, tag int, size units.Size, data []float64) {
	m := c.getMsg()
	m.src, m.tag, m.size, m.data = src, tag, size, data
	m.box = c.inbox[dst]
	a, b := c.cfg.Places[src], c.cfg.Places[dst]
	c.net.Transfer(p,
		transport.Endpoint{Node: a.Node, Core: a.Core},
		transport.Endpoint{Node: b.Node, Core: b.Core},
		size, m.deliver)
}

// recv blocks until the message with the given source and tag arrives at
// rank dst, recycles the message and returns its payload. Safe because
// rank dst is the only reader of its inbox, so the match slots stay
// stable while the proc is parked inside GetMatch.
func (c *comm) recv(p *sim.Proc, dst, src, tag int) []float64 {
	c.matchSrc[dst] = src
	c.matchTag[dst] = tag
	m := c.inbox[dst].GetMatch(p, c.preds[dst])
	data := m.data
	c.putMsg(m)
	return data
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
	for r, pl := range cfg.Places {
		if !cfg.Fabric.Contains(pl.Node) {
			return fmt.Errorf("collectives: rank %d placed on %v outside the %d-node fabric",
				r, pl.Node, cfg.Fabric.Nodes())
		}
		if pl.Core < 0 || pl.Core > 3 {
			return fmt.Errorf("collectives: rank %d on core %d (want 0..3)", r, pl.Core)
		}
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
	defer eng.Close()
	c := newComm(eng, cfg)
	out := make([][]float64, len(cfg.Places))
	for r := range out {
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			out[r] = algo(c, p, r, size)
			c.finish[r] = p.Now()
		})
	}
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("collectives: %s over %d ranks: %w", op, len(cfg.Places), err)
	}
	if err := validate(op, cfg, out); err != nil {
		return nil, err
	}
	return c.result(op, size, out, eng.Stats()), nil
}

// check validates a run's inputs and returns its algorithm.
func check(cfg Config, op Op, size units.Size) (func(*comm, *sim.Proc, int, units.Size) []float64, error) {
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
	for _, f := range c.finish {
		if f > res.Time {
			res.Time = f
		}
		if f < res.MinTime {
			res.MinTime = f
		}
	}
	return res
}

// Spec pairs an operation with its payload size, for RunSequence.
type Spec struct {
	Op   Op
	Size units.Size
}

// RunSequence runs several collectives back to back on ONE engine, with
// all ranks rendezvousing on a sim.Group between operations so each
// starts from a common simulated instant (the way benchmark loops
// separate iterations with a barrier that costs nothing on the wire).
// Per-operation times are measured from that common start.
func RunSequence(cfg Config, specs []Spec) ([]*Result, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	ranks := len(cfg.Places)
	if len(specs) == 0 {
		return nil, fmt.Errorf("collectives: empty sequence")
	}
	algos := make([]func(*comm, *sim.Proc, int, units.Size) []float64, len(specs))
	for i, s := range specs {
		a, ok := algorithms[s.Op]
		if !ok {
			return nil, fmt.Errorf("collectives: unknown op %q (have %v)", s.Op, Ops())
		}
		algos[i] = a
	}

	eng := sim.NewEngine()
	defer eng.Close()
	group := sim.NewGroup(eng, "collective-phase", ranks)
	comms := make([]*comm, len(specs))
	for i := range specs {
		comms[i] = newComm(eng, cfg)
	}
	starts := make([]units.Time, len(specs))
	// marks[i] is the engine's dispatched-event count at operation i's
	// release instant: the maximum over ranks of the count at arrival is
	// exactly the count when the last rank arrives, before anything of
	// the operation itself has dispatched.
	marks := make([]int64, len(specs))
	outs := make([][][]float64, len(specs))
	for i := range outs {
		outs[i] = make([][]float64, ranks)
	}
	for r := 0; r < ranks; r++ {
		r := r
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			for i := range specs {
				if d := eng.Stats().Dispatched; d > marks[i] {
					marks[i] = d
				}
				group.Arrive(p)
				if r == 0 {
					starts[i] = p.Now()
				}
				outs[i][r] = algos[i](comms[i], p, r, specs[i].Size)
				comms[i].finish[r] = p.Now()
			}
		})
	}
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("collectives: sequence over %d ranks: %w", ranks, err)
	}
	st := eng.Stats()
	results := make([]*Result, len(specs))
	for i, s := range specs {
		if err := validate(s.Op, cfg, outs[i]); err != nil {
			return nil, err
		}
		// Per-op stats: Dispatched is the delta between release instants
		// (rendezvous wake-ups charged to the op they start); calendar
		// peak and proc counts stay whole-run.
		opStats := st
		if i+1 < len(specs) {
			opStats.Dispatched = marks[i+1] - marks[i]
		} else {
			opStats.Dispatched = st.Dispatched - marks[i]
		}
		res := comms[i].result(s.Op, s.Size, outs[i], opStats)
		res.Time -= starts[i]
		res.MinTime -= starts[i]
		results[i] = res
	}
	return results, nil
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
