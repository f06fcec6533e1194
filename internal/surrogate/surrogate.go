// Package surrogate prices a rank→node placement analytically, in
// microseconds of host time instead of the milliseconds a discrete-event
// replay costs — the grey-box queueing fast path the placement search
// uses to screen large candidate batches before spending DES
// evaluations on a shortlist.
//
// The model is built once per trace: one pass over the validated
// records compiles the dependency DAG (per-rank programs, each recv
// wired to the send its Dep names) and the placement-independent
// per-pair traffic table. Pricing a candidate mapping then combines
// analytic terms:
//
//   - a schedule walk of the compiled DAG — a deterministic list
//     scheduler replaying the transport arithmetic in closed form:
//     software overheads, rendezvous round trips, per-hop latency, and
//     payload flows whose rate is sampled per chunk from the HCA
//     sharing laws (multi-flow and duplex caps at both endpoint
//     adapters, exactly ib's flowRate), with each admission-controlled
//     link a busy-until server when the congestion policy queues
//     (PR 4's headline: HCA sharing, not hop count, dominates
//     placement cost);
//   - the HCA-sharing bound: the hottest adapter's total streaming time
//     under the multi-flow and duplex caps — the load-balance term the
//     walk's completion-time view underweights;
//   - an M/M/1-style waiting-time term per contended link — the pair
//     traffic table folded through the topology's routes, read in
//     transport.PairPath admission order from the same transport route
//     cache the DES uses (the model's own transport.Net; the model keeps
//     no route table, and its per-link arrays are indexed by the net's
//     link ids) — split into the 2:1-tapered uplink tier and everything
//     else, with utilization measured against the walk horizon.
//
// The terms are combined linearly with weights fitted by ridge least
// squares against a small set of DES-evaluated anchor placements
// (Calibrate) — the grey-box step: physics decides the features,
// calibration absorbs the constants the closed forms cannot know.
// Everything is deterministic: the walk's event queue breaks ties by
// (time, kind, rank) and float accumulation follows the canonical pair
// order, so equal inputs price equally on every run and every clone,
// which the placement search's serial ≡ parallel contract relies on.
package surrogate

import (
	"fmt"
	"math"
	"slices"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/sim"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// NumFeatures is the length of a feature vector.
const NumFeatures = 5

// FeatureNames labels the feature vector entries, in order.
var FeatureNames = [NumFeatures]string{"const", "sched", "hca", "wait-uplink", "wait-other"}

// maxRho clamps per-link utilization below saturation so the M/M/1
// waiting term stays finite on overloaded candidates (the ranking still
// orders them last: service time keeps growing with load).
const maxRho = 0.97

// walkChunk is the rate re-sampling granularity of the schedule walk's
// flows, mirroring the DES HCA's contention re-evaluation chunk.
const walkChunk = 64 * 1024

// Op kinds in the compiled DAG (compute records are folded into the
// next communication op's pre-duration, so only these two remain).
const (
	opSend = iota
	opRecv
)

// Walk event kinds, packed into the event key's low bit: flow chunk
// completions order before flow starts at the same instant, as the DES
// releases an adapter before the next admission at one timestamp.
const (
	evEnd = iota
	evStart
)

// compiled is the trace's dependency DAG flattened for the walk, built
// once and shared read-only across clones. Only communication records
// survive as ops (canonical rank-major order, so off slices each
// rank's program); each op carries the compute time preceding it in
// its rank's program as pre, and compute trailing a rank's last comm
// op lands in tail. The rendezvous flag is fixed at the profile's
// eager threshold, and sendOf wires each recv to its matching send.
type compiled struct {
	off  []int32  // rank r's ops are [off[r], off[r+1])
	ops  []walkOp // the comm ops, rank-major
	tail []int64  // per rank, compute after its last comm op
	// traffic holds every directed rank pair that carries a message,
	// source-major and destination-minor: the order every per-link and
	// per-node float sum of a price runs in.
	traffic []pairTraffic
}

// walkOp is one compiled communication op, packed so the walk streams
// a single array.
type walkOp struct {
	pre    int64 // compute folded in front of this op
	size   int64
	pair   int32 // per send, dense index into compiled.traffic
	sendOf int32 // per recv, the matching send's op index
	kind   uint8
	rdv    bool
}

// pairTraffic is one directed rank pair's placement-independent
// traffic: the messages sent src→dst and their summed payload.
type pairTraffic struct {
	src, dst    int32
	msgs, bytes int64
}

// Model is the analytic pricer for one trace on one fabric. It is not
// safe for concurrent use; parallel searches give each worker a Clone
// (caches and buffers are per-instance, the compiled trace and
// calibrated weights are shared read-only).
type Model struct {
	dag      *compiled
	fab      *fabric.System
	prof     ib.Profile
	pol      transport.Policy
	queueing bool // link admission can actually queue under the policy

	mfPs  float64 // ps/byte at the multi-flow shared rate
	dupPs float64 // ps/byte at the duplex-aggregate rate

	eng *sim.Engine    // never run; owns the route-resolving net's state
	net *transport.Net // route resolution only: its cache and link ids

	// Per-candidate pair table (compiled.traffic order).
	pairs []pairInfo

	// Per-candidate walk and load buffers.
	rk          []walkRank // per rank
	deliv       []int64    // per record: send's delivery time (0 = not yet)
	waiter      []int32    // per record: rank blocked on this send, -1 none
	nOutC, nInC []int32    // per global node: active flow counts by direction
	linkBusy    []int64    // per net link id: busy-until (queueing policies)
	ends        walkQueue  // pending flow chunk ends
	starts      walkQueue  // pending flow starts, re-queued starts included
	work        []int32    // runnable-rank stack
	lbytes      []float64  // per net link id
	lmsgs       []float64  // per net link id
	ltouch      []int32
	nin, nout   []float64 // per global node
	ntouch      []int32

	feat    [NumFeatures]float64
	weights []float64 // shared across clones after Calibrate
}

// NewReplay builds the model for a trace under a replay configuration:
// fabric, profile, policy, ComputeScale and SkipCompute are honored, so
// the surrogate prices exactly the objective the DES replays under that
// configuration (Places and Observe have no meaning here). The trace is
// validated and compiled here, once per trace; an invalid trace is an
// error, never a panic.
func NewReplay(tr *trace.Trace, cfg trace.ReplayConfig) (*Model, error) {
	if cfg.Fabric == nil {
		return nil, fmt.Errorf("surrogate: nil fabric")
	}
	scale := cfg.ComputeScale
	if scale == 0 {
		scale = 1
	}
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
		return nil, fmt.Errorf("surrogate: bad compute scale %g", scale)
	}
	if cfg.SkipCompute {
		scale = 0
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	dag := compile(tr, cfg.Profile.EagerThreshold, scale)
	m := newModel(dag, cfg.Fabric, cfg.Profile, cfg.Policy)
	// The physically-motivated prior: the walk's schedule IS the
	// uncalibrated price — it already plays out HCA sharing and link
	// admission, so the aggregate correction terms start at zero and
	// only enter where Calibrate finds anchor evidence for them.
	m.weights = []float64{0, 1, 0, 0, 0}
	return m, nil
}

// compile flattens the validated trace into the walk's arrays,
// folding each compute record into the pre-duration of its rank's next
// communication op (or the rank's tail) so the walk touches comm ops
// only. Compute durations are scaled exactly as the evaluator scales
// them (scale 0 strips them: the comm-only schedule).
func compile(tr *trace.Trace, eager units.Size, scale float64) *compiled {
	ranks := tr.Meta.Ranks
	c := &compiled{
		off:  make([]int32, ranks+1),
		tail: make([]int64, ranks),
	}
	pairKey := func(src, dst int) int64 { return int64(src)*int64(ranks) + int64(dst) }
	// One pass in canonical (rank-major) order: comm records append
	// ops, compute accumulates into the pending pre-duration, and keys
	// collects each send's pair. first[r] is rank r's first record and
	// opOf each record's op.
	first := make([]int32, ranks)
	opOf := make([]int32, len(tr.Records))
	var keys []int64
	var pre int64
	for i, r := range tr.Records {
		if r.Seq == 0 {
			first[r.Rank] = int32(i)
		}
		switch r.Kind {
		case trace.KindCompute:
			pre += int64(units.Time(float64(r.Duration) * scale))
		case trace.KindSend:
			keys = append(keys, pairKey(r.Rank, r.Peer))
			opOf[i] = int32(len(c.ops))
			c.ops = append(c.ops, walkOp{
				pre:    pre,
				size:   int64(r.Size),
				sendOf: -1,
				kind:   opSend,
				rdv:    r.Size > eager,
			})
			c.off[r.Rank+1]++
			pre = 0
		case trace.KindRecv:
			opOf[i] = int32(len(c.ops))
			c.ops = append(c.ops, walkOp{pre: pre, pair: -1, sendOf: -1, kind: opRecv})
			c.off[r.Rank+1]++
			pre = 0
		}
		if i+1 == len(tr.Records) || tr.Records[i+1].Rank != r.Rank {
			c.tail[r.Rank] = pre
			pre = 0
		}
	}
	for r := 0; r < ranks; r++ {
		c.off[r+1] += c.off[r]
	}
	// The pair table is the distinct pair keys in sorted order:
	// source-major, destination-minor.
	slices.Sort(keys)
	keys = slices.Compact(keys)
	c.traffic = make([]pairTraffic, len(keys))
	for k, key := range keys {
		c.traffic[k] = pairTraffic{src: int32(key / int64(ranks)), dst: int32(key % int64(ranks))}
	}
	// Each send adds to its pair's totals, and each recv is wired to its
	// send: Validate proved that a recv's Dep is the Seq of its
	// FIFO-matched send in Peer's stream, so that send is record
	// first[Peer]+Dep.
	for i, r := range tr.Records {
		switch r.Kind {
		case trace.KindSend:
			k, _ := slices.BinarySearch(keys, pairKey(r.Rank, r.Peer))
			c.ops[opOf[i]].pair = int32(k)
			c.traffic[k].msgs++
			c.traffic[k].bytes += int64(r.Size)
		case trace.KindRecv:
			c.ops[opOf[i]].sendOf = opOf[first[r.Peer]+int32(r.Dep)]
		}
	}
	return c
}

// newModel builds one pricing instance over the shared compiled trace.
func newModel(dag *compiled, fab *fabric.System, prof ib.Profile, pol transport.Policy) *Model {
	ranks := len(dag.tail)
	eng := sim.NewEngine()
	waiter := make([]int32, len(dag.ops))
	for i := range waiter {
		waiter[i] = -1
	}
	return &Model{
		dag:      dag,
		fab:      fab,
		prof:     prof,
		pol:      pol,
		queueing: pol.Enabled,
		mfPs:     psPerByte(prof.MultiFlowBandwidth),
		dupPs:    psPerByte(prof.DuplexAggregate),
		eng:      eng,
		net:      transport.New(eng, fab, prof, pol),
		pairs:    make([]pairInfo, len(dag.traffic)),
		rk:       make([]walkRank, ranks),
		deliv:    make([]int64, len(dag.ops)),
		waiter:   waiter,
		nOutC:    make([]int32, fab.Nodes()),
		nInC:     make([]int32, fab.Nodes()),
		ends:     walkQueue{q: make([]walkEv, 0, 2*ranks+1)},
		starts:   walkQueue{q: make([]walkEv, 0, 2*ranks+1)},
		work:     make([]int32, 0, ranks),
		nin:      make([]float64, fab.Nodes()),
		nout:     make([]float64, fab.Nodes()),
	}
}

// Clone returns an instance sharing the compiled trace and the
// calibrated weights but owning its route-resolving net
// (with its route cache) and buffers, all mutated during pricing, for
// one worker of a parallel search. Calibrate before cloning; clones price
// identically to the original — the walk's event order and float
// summation follow canonical orders, never cache history.
func (m *Model) Clone() *Model {
	c := newModel(m.dag, m.fab, m.prof, m.pol)
	c.weights = m.weights
	return c
}

// Close releases the engine backing the route-resolving net.
func (m *Model) Close() { m.eng.Close() }

// Weights returns the current term weights (FeatureNames order).
func (m *Model) Weights() []float64 { return append([]float64(nil), m.weights...) }

// pairInfo is one directed rank pair's placement-dependent transport
// arithmetic under the current candidate, sized to a cache line so a
// flow's whole cost model is one load.
type pairInfo struct {
	fix    int64   // sender fixed cost: per-side overhead
	rdvT   int64   // rendezvous round trip (0 intra-node)
	deliv  int64   // stream end → recv completion: fabric + overhead
	stream float64 // picoseconds per payload byte at the pair rate
	srcN   int32   // sender's global node, -1 intra-node
	dstN   int32   // receiver's global node, -1 intra-node
	links  []int32 // the net's admission link ids, transport acquisition order
}

// walkEv is one pending flow event, its ordering key packed into two
// int64 words so queue moves are two stores: k1 = time<<1 | kind (chunk
// ends sort before starts at the same instant) and k2 = arrival<<20 |
// rank. The arrival key is a start event's first admission attempt:
// flows re-queued behind a busy link compete again when it frees, and
// the earliest original arrival wins, as the DES's FIFO channel queues
// grant. Packing is lossless for any walk the model prices: times stay
// far below 2^62 ps (weeks of simulated time) and ranks below 2^20.
// The order is strict — a rank has at most one pending event — so the
// pop sequence is fully determined by the event multiset and never by
// insertion history.
type walkEv struct{ k1, k2 int64 }

// walkRank is one rank's walk state, kept together so a flow event
// touches one record: the rank's clock, its next op, and the pair and
// remaining payload of the flow it has in flight.
type walkRank struct {
	clk, rem int64
	pc, pair int32
}

// walkQueue is one of the walk's two pending-event queues: q[head:],
// sorted earliest first and closed by a sentinel that orders after
// every event, so a pop needs no emptiness test. Pops advance head, and
// an insertion shifts only the pending events later than it: few on the
// wavefront schedules traces carry, where a new event lands near the
// back. That beats a binary heap's sift-down per pop, whose
// data-dependent branches mispredict at every level.
type walkQueue struct {
	q    []walkEv
	head int
}

// noEvent is the sentinel's k1: later than any walk event's.
const noEvent = math.MaxInt64

// reset empties the queue, keeping its array.
func (w *walkQueue) reset() {
	w.q, w.head = append(w.q[:0], walkEv{k1: noEvent}), 0
}

// push inserts an event by its packed keys. The walk keeps chunk ends
// and flow starts in separate queues because a new event of either kind
// tends to be earlier than many pending events of the other kind, which
// one shared queue would shift it past, yet lands near the back of its
// own.
func (w *walkQueue) push(k1, k2 int64) {
	q, h := w.q, w.head
	if len(q) == cap(q) && h > 0 {
		q = q[:copy(q, q[h:])]
		h, w.head = 0, 0
	}
	// The new sentinel goes at the back; the old one's slot takes the
	// event or the last event shifted up.
	q = append(q, walkEv{k1: noEvent})
	i := len(q) - 2
	for i > h && (q[i-1].k1 > k1 || (q[i-1].k1 == k1 && q[i-1].k2 > k2)) {
		q[i] = q[i-1]
		i--
	}
	q[i] = walkEv{k1, k2}
	w.q = q
}

// psPerByte converts a bandwidth to picoseconds per byte.
func psPerByte(bw units.Bandwidth) float64 {
	if bw <= 0 {
		return 0
	}
	return float64(units.Second) / float64(bw)
}

// ratePs returns the effective picoseconds per byte of the pair's flow
// given the current sharing state at both endpoint adapters — the
// walk's closed form of ib's flowRate at each end, min'd across the
// endpoints (max in ps/byte terms). Counts include the flow itself.
func ratePs(stream, mfPs, dupPs float64, sOut, sIn, dOut, dIn int32) float64 {
	ps := stream
	if sOut > 1 {
		ps = max(ps, mfPs*float64(sOut))
	}
	if sOut > 0 && sIn > 0 {
		ps = max(ps, dupPs*float64(sOut+sIn))
	}
	if dIn > 1 {
		ps = max(ps, mfPs*float64(dIn))
	}
	if dOut > 0 && dIn > 0 {
		ps = max(ps, dupPs*float64(dOut+dIn))
	}
	return ps
}

// growLinks extends the per-link arrays to the net's link count: a
// route derived for this candidate may have resolved new links. Link ids
// depend on derivation history, but they are identity keys only:
// accumulation and summation order follow the canonical pair order, so
// prices do not.
func (m *Model) growLinks() {
	if k := m.net.Links() - len(m.lmsgs); k > 0 {
		m.lbytes = append(m.lbytes, make([]float64, k)...)
		m.lmsgs = append(m.lmsgs, make([]float64, k)...)
		m.linkBusy = append(m.linkBusy, make([]int64, k)...)
	}
}

// Features computes the candidate's feature vector (FeatureNames
// order, all terms in picoseconds except the leading constant).
// places must be a valid placement for the trace's ranks on the
// model's fabric, one endpoint per rank.
func (m *Model) Features(places []transport.Endpoint) []float64 {
	f := m.features(places)
	return append([]float64(nil), f[:]...)
}

// features fills and returns the model's reusable feature array.
func (m *Model) features(places []transport.Endpoint) *[NumFeatures]float64 {
	if len(places) != len(m.rk) {
		panic(fmt.Sprintf("surrogate: %d placements for %d ranks", len(places), len(m.rk)))
	}
	// Reset only what the previous candidate touched.
	for _, li := range m.ltouch {
		m.lbytes[li], m.lmsgs[li], m.linkBusy[li] = 0, 0, 0
	}
	m.ltouch = m.ltouch[:0]
	for _, g := range m.ntouch {
		m.nin[g], m.nout[g] = 0, 0
		m.nOutC[g], m.nInC[g] = 0, 0
	}
	m.ntouch = m.ntouch[:0]
	clear(m.rk)

	// Pass 1 — per-pair tables under this mapping, plus per-link and
	// per-node offered load, in canonical pair order.
	o1 := int64(m.prof.PerSideOverhead)
	for pi := range m.dag.traffic {
		p := &m.dag.traffic[pi]
		src, dst := places[p.src], places[p.dst]
		pe := &m.pairs[pi]
		pe.fix = o1
		if src.Node == dst.Node {
			// Shared memory: software overhead on each side, nothing
			// offered to the fabric or the adapters.
			pe.rdvT = 0
			pe.deliv = o1
			pe.stream = 0
			pe.srcN, pe.dstN = -1, -1
			pe.links = nil
			continue
		}
		pp := m.net.PairPath(src.Node, dst.Node)
		pe.rdvT = int64(pp.RendezvousExtra())
		pe.deliv = int64(pp.FabricLatency()) + o1
		pe.stream = psPerByte(m.prof.PairBandwidth(src.Core, dst.Core))
		pe.links = pp.LinkIDs()
		m.growLinks()
		b, msgs := float64(p.bytes), float64(p.msgs)
		for _, li := range pe.links {
			if m.lmsgs[li] == 0 {
				m.ltouch = append(m.ltouch, li)
			}
			m.lmsgs[li] += msgs
			m.lbytes[li] += b
		}
		sg, dg := src.Node.GlobalID(), dst.Node.GlobalID()
		pe.srcN, pe.dstN = int32(sg), int32(dg)
		if m.nin[sg] == 0 && m.nout[sg] == 0 {
			m.ntouch = append(m.ntouch, int32(sg))
		}
		m.nout[sg] += b
		if m.nin[dg] == 0 && m.nout[dg] == 0 {
			m.ntouch = append(m.ntouch, int32(dg))
		}
		m.nin[dg] += b
	}

	// Pass 2 — the schedule walk.
	sched := m.walk()

	// The hottest adapter's streaming time under the HCA sharing caps.
	hca := 0.0
	for _, g := range m.ntouch {
		in, out := m.nin[g], m.nout[g]
		t := math.Max(in, out) * m.mfPs
		if d := (in + out) * m.dupPs; d > t {
			t = d
		}
		if t > hca {
			hca = t
		}
	}

	// M/M/1 waiting per contended link against the schedule horizon.
	waitUp, waitOther := 0.0, 0.0
	if m.queueing {
		t0 := float64(sched)
		if t0 < 1 {
			t0 = 1
		}
		for _, li := range m.ltouch {
			busy := m.lbytes[li] * m.mfPs // total streaming time offered to the cable
			if busy == 0 {
				continue
			}
			rho := busy / t0
			if rho > maxRho {
				rho = maxRho
			}
			w := busy * rho / (1 - rho) // n * S * rho/(1-rho), S = busy/n
			if m.net.Link(li).Kind == fabric.LinkUplink {
				waitUp += w
			} else {
				waitOther += w
			}
		}
	}

	m.feat = [NumFeatures]float64{1, float64(sched), hca, waitUp, waitOther}
	return &m.feat
}

// walk plays the trace's DAG out over the pair tables pass 1 filled
// and returns the makespan: a deterministic event-driven list
// scheduler. Every rank runs its program until it blocks on a recv or
// starts an inter-node payload flow; shared-memory and zero-size sends
// cost only their overheads and resolve inline. A flow samples its rate
// from the adapters' current sharing state (ib's flowRate at both ends)
// one walkChunk at a time, re-sampling at chunk boundaries, so
// overlapping flows slow one another exactly as the DES HCAs do; when
// the congestion policy queues, the route's admission links are
// busy-until servers a flow must wait out before starting, held until
// its stream completes (the DES's channel admission, minus
// hold-and-wait coupling). Events pop in (time, kind, arrival, rank)
// order — fully deterministic.
func (m *Model) walk() int64 {
	// The hot arrays live in locals so the loop stays in registers.
	d := m.dag
	ops, pairs := d.ops, m.pairs
	ends, starts := &m.ends, &m.starts
	deliv, waiter := m.deliv, m.waiter
	nOutC, nInC, linkBusy, rk := m.nOutC, m.nInC, m.linkBusy, m.rk
	mfPs, dupPs, queueing := m.mfPs, m.dupPs, m.queueing
	clear(deliv)
	ends.reset()
	starts.reset()
	work := m.work[:0]
	for r := len(rk) - 1; r >= 0; r-- {
		rk[r].pc = d.off[r]
		work = append(work, int32(r))
	}
	for {
		// Drain runnable ranks: each runs to its next flow-bearing
		// send, its next unsatisfied recv, or the end of its program.
		// An op's pre-compute is committed only with the op itself, so
		// re-draining a rank blocked at a recv re-derives the same
		// completion time — resumption is stateless.
		for len(work) > 0 {
			r := work[len(work)-1]
			work = work[:len(work)-1]
			rs := &rk[r]
			i, c := rs.pc, rs.clk
			end := d.off[r+1]
		run:
			for i < end {
				op := &ops[i]
				cp := c + op.pre
				if op.kind == opRecv {
					dv := deliv[op.sendOf]
					if dv == 0 {
						waiter[op.sendOf] = r
						break run
					}
					if dv > cp {
						cp = dv
					}
					c = cp
					i++
					continue
				}
				pe := &pairs[op.pair]
				if pe.srcN < 0 || op.size <= 0 {
					// Shared memory or zero-size: overheads only,
					// no shared resources; resolve inline.
					c = cp + pe.fix
					deliv[i] = c + pe.deliv
					if w := waiter[i]; w >= 0 {
						waiter[i] = -1
						work = append(work, w)
					}
					i++
					continue
				}
				start := cp + pe.fix
				if op.rdv {
					start += pe.rdvT
				}
				rs.pair, rs.rem = op.pair, op.size
				starts.push(start<<1|evStart, start<<20|int64(r))
				break run
			}
			if i == end {
				c += d.tail[r]
			}
			rs.pc, rs.clk = i, c
		}
		// The earlier head pops next. The heads' k1 words differ in the
		// kind bit if not in the time, unless both are sentinels, so
		// comparing them decides the packed (k1, k2) order.
		if e := ends.q[ends.head]; e.k1 < starts.q[starts.head].k1 {
			// One chunk of r's flow done.
			ends.head++
			t, r := e.k1>>1, int32(e.k2)
			rs := &rk[r]
			pe := &pairs[rs.pair]
			sg, dg := pe.srcN, pe.dstN
			rem := rs.rem - min(rs.rem, walkChunk)
			if rem > 0 {
				rs.rem = rem
				ps := ratePs(pe.stream, mfPs, dupPs, nOutC[sg], nInC[sg], nOutC[dg], nInC[dg])
				chunk := min(rem, walkChunk)
				ends.push((t+int64(float64(chunk)*ps+0.5))<<1|evEnd, int64(r))
				if queueing {
					proj := t + int64(float64(rem)*ps+0.5)
					for _, li := range pe.links {
						linkBusy[li] = proj
					}
				}
				continue
			}
			// Flow complete: release the adapters, deliver, resume the
			// sender and any blocked receiver. The held links need no
			// release write — capacity-1 admission means no other flow
			// could touch them while held, and the final chunk's
			// projection already wrote exactly this completion time.
			nOutC[sg]--
			nInC[dg]--
			i := rs.pc
			rs.clk = t
			deliv[i] = t + pe.deliv
			rs.pc = i + 1
			work = append(work, r)
			if w := waiter[i]; w >= 0 {
				waiter[i] = -1
				work = append(work, w)
			}
			continue
		}
		ev := starts.q[starts.head]
		if ev.k1 == noEvent {
			break
		}
		// r's flow starts.
		starts.head++
		t, r := ev.k1>>1, int32(ev.k2&(1<<20-1))
		rs := &rk[r]
		pe := &pairs[rs.pair]
		sg, dg := pe.srcN, pe.dstN
		if queueing {
			// Channel admission: wait out the route's busy links.
			ready := t
			for _, li := range pe.links {
				ready = max(ready, linkBusy[li])
			}
			if ready > t {
				starts.push(ready<<1|evStart, ev.k2)
				continue
			}
		}
		nOutC[sg]++
		nInC[dg]++
		rem := rs.rem
		ps := ratePs(pe.stream, mfPs, dupPs, nOutC[sg], nInC[sg], nOutC[dg], nInC[dg])
		chunk := min(rem, walkChunk)
		ends.push((t+int64(float64(chunk)*ps+0.5))<<1|evEnd, int64(r))
		if queueing {
			proj := t + int64(float64(rem)*ps+0.5)
			for _, li := range pe.links {
				linkBusy[li] = proj
			}
		}
	}
	m.work = work[:0]
	sched := int64(0)
	for _, rs := range m.rk {
		sched = max(sched, rs.clk)
	}
	return sched

}

// Price returns the model's cost estimate for the candidate placement,
// in simulated time units — comparable across candidates of one trace,
// approximating (after Calibrate) the DES replay makespan. Same input,
// same output, on every clone and run.
func (m *Model) Price(places []transport.Endpoint) units.Time {
	f := m.features(places)
	v := 0.0
	for i, w := range m.weights {
		v += w * f[i]
	}
	if v < 0 {
		v = 0
	}
	return units.Time(math.Round(v))
}
