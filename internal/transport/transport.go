// Package transport owns the routed message path between nodes of the
// Roadrunner interconnect: the MPI software overheads, the
// eager/rendezvous protocol switch, the HCA streaming of internal/ib,
// and link-level congestion over the explicit cable topology of
// internal/fabric.
//
// Point-to-point plumbing used to live inside internal/collectives as
// private send/recv helpers charging per-hop latency against an
// infinitely capacious fabric: two messages crossing the same uplink
// never queued, so the 2:1 taper at the CU uplinks could not throttle
// anything. The transport has two policies. The zero Policy keeps that
// infinite-capacity fabric: per-hop latency from the route, no link
// state. Congested() instead holds a sim.Resource-backed wormhole
// channel on every fabric-interior link of the route (spine, uplink and
// switch-internal cables — node ports belong to the ib adapter model;
// see Pending.admit) while the payload streams: concurrent flows
// crossing the same cable serialize, exactly the mechanism a
// wormhole-routed fabric exhibits when the reduced fat tree saturates.
//
// The no-contention timing is the same under both policies: link
// channels are taken before the HCA stream and released after it, and
// an admission that does not queue adds no calendar event, so a
// congested run whose census reports nothing queued is byte-identical
// in time and event count to the zero-Policy run. The invariant is
// pinned by TestUnqueuedCongestedTransfersMatchUncongested here, by
// trace.TestUnqueuedCongestedReplayMatchesUncongested and, across every
// collective algorithm, by
// collectives.TestUnqueuedCongestedRunMatchesUncongested.
//
// Endpoint flow accounting (ib.HCA sharing, duplex caps) composes with
// link occupancy rather than being replaced by it: the stream rate is
// still set chunk-by-chunk by the two adapters, while the links bound
// which flows can be on the wire at all.
//
// The package also decides where ranks sit: the block, strided and
// packed placement generators and the per-rank placement check that the
// collectives, the trace replay, the CLIs and the HTTP service share.
package transport

import (
	"fmt"
	"sort"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/sim"
	"roadrunner/internal/units"
)

// Policy configures link-level congestion.
type Policy struct {
	// Enabled gives each direction of every fabric-interior cable one
	// wormhole channel, so concurrent flows on a cable serialize, and
	// accounts per-link occupancy for the census. Off (the zero value)
	// is the infinite-capacity fabric, with no link state at all.
	Enabled bool
}

// Congested returns the congestion policy: every cable a single wormhole
// channel per direction.
func Congested() Policy { return Policy{Enabled: true} }

// ParsePolicy reads a congestion setting as the CLIs and the HTTP
// service spell it: "on" is Congested(), "off" the zero Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "on":
		return Congested(), nil
	case "off":
		return Policy{}, nil
	}
	return Policy{}, fmt.Errorf("congestion must be on or off, got %q", s)
}

// Endpoint locates one side of a transfer: the node and the Opteron core
// the MPI call issues from (HCA proximity per Fig. 8).
type Endpoint struct {
	Node fabric.NodeID
	Core int
}

// linkState is one directed link channel: its admission resource,
// created on the first flow admitted, plus traffic counters.
type linkState struct {
	link  fabric.Link
	res   *sim.Resource // nil until a flow is admitted onto the channel
	msgs  int64
	bytes units.Size
}

// String names the channel's admission resource, which formats it only
// for a panic text or its Stats.
func (st *linkState) String() string { return st.link.String() }

// rowStart is the width a route-cache row is created with, capped at the
// fabric's node count. A placement search routes to about 200
// destinations per net and a 360-node collective to 360, so their rows
// never widen; a row that needs more is widened once, straight to the
// node count, so a full-machine run copies each row at most once.
const rowStart = 512

// xbarPath is the cached routing work shared by every source node of one
// cache row toward one destination node: the hop-latency term, the
// rendezvous round trip, and — with congestion enabled — the route's
// fabric-interior links already resolved and sorted into the global
// acquisition order. Rows are keyed by the topology's CacheKey, whose
// contract (two sources with one key share every route interior) is
// exactly what makes the shared entry exact: the fat-tree keys by line
// crossbar (408 rows), the per-node-router torus by node (3,060). Within
// a row, entries sit at the destination's dense index, so a row is as
// wide as the set of destinations the net has routed to, not the
// machine.
//
// The entry holds no pointer: its links are a span of the net's
// route-link table, whose ids index the net's link states, so the rows
// are 32-byte plain values that the garbage collector never scans,
// however many a full-machine sweep derives. A derived entry is never
// written again, so a PairPath taken before its row widened still reads
// the right values from the old copy.
type xbarPath struct {
	fabLat   units.Time // hop count x hop latency
	rdvExtra units.Time // rendezvous round trip above the eager threshold
	hops     int32      // crossbar traversals on the route (len(route)-1)
	// The route's admission-controlled link ids, in acquisition order,
	// are Net.routeLinks[off : off+nlinks].
	off     int32
	nlinks  uint16
	derived bool
}

// PairPath is the resolved routing work for one directed (src, dst) node
// pair: the shared crossbar-granular route entry and the net whose link
// table its ids index. It is a small value; resolving one allocates
// nothing.
type PairPath struct {
	n  *Net
	xp *xbarPath
}

// Net is the per-engine transport instance: it owns the node HCAs and
// the lazily materialized link states of one simulation run.
type Net struct {
	eng  *sim.Engine
	fab  *fabric.System
	prof ib.Profile
	pol  Policy

	hcas       []*ib.HCA        // by destination global node id, nil until used
	links      map[uint64]int32 // link key -> id in states
	states     []*linkState     // by link id, in first-use order
	dsts       []int32          // by global node id: dense destination index + 1, 0 until routed to
	ndst       int32            // dense destination indices assigned
	xpaths     [][]xbarPath     // by source cache key (fabric CacheKey), then dense destination index
	routeLinks []int32          // every cached route's link ids, one span per entry
	rbuf       []fabric.Link    // route scratch, sized to the topology's MaxRouteLen
	xfers      *Pending         // free list of chained-transfer state machines

	msgs int64
	wire units.Size
}

// New creates a transport instance on the engine.
func New(eng *sim.Engine, fab *fabric.System, prof ib.Profile, pol Policy) *Net {
	if fab == nil {
		panic("transport: nil fabric")
	}
	n := &Net{
		eng:    eng,
		fab:    fab,
		prof:   prof,
		pol:    pol,
		hcas:   make([]*ib.HCA, fab.Nodes()),
		dsts:   make([]int32, fab.Nodes()),
		xpaths: make([][]xbarPath, fab.CacheRows()),
		rbuf:   make([]fabric.Link, 0, fab.MaxRouteLen()),
	}
	if pol.Enabled {
		n.links = make(map[uint64]int32)
	}
	return n
}

// Reset zeroes every traffic counter — transport totals, per-link
// occupancy and the endpoint HCA flow accounting — while keeping the
// HCA table, the link-state map (with their sim.Resource objects) and
// the route cache with its destination indices intact, so a pooled Net
// replays a fresh run without rebuilding any per-link state. Call it
// alongside sim.Engine.Reset; everything must be idle (no flows
// streaming, no admissions held).
func (n *Net) Reset() {
	n.msgs = 0
	n.wire = 0
	for _, st := range n.states {
		st.msgs = 0
		st.bytes = 0
		if st.res != nil {
			st.res.ResetStats()
		}
	}
	for _, h := range n.hcas {
		if h != nil {
			h.ResetStats()
		}
	}
}

// HCA returns (creating on first use) the node's adapter.
func (n *Net) HCA(node fabric.NodeID) *ib.HCA {
	g := node.GlobalID()
	h := n.hcas[g]
	if h == nil {
		h = ib.NewHCA(n.prof)
		n.hcas[g] = h
	}
	return h
}

// Messages returns the number of transfers started, including intra-node
// shared-memory messages.
func (n *Net) Messages() int64 { return n.msgs }

// WireBytes returns the payload bytes that crossed the fabric
// (intra-node messages excluded).
func (n *Net) WireBytes() units.Size { return n.wire }

// linkID returns (creating on first use) the id of the link's channel
// state. Resolving a route builds no admission resource: a net that only
// resolves routes (internal/surrogate) never pays for one.
func (n *Net) linkID(l fabric.Link) int32 {
	k := l.Key()
	id, ok := n.links[k]
	if !ok {
		id = int32(len(n.states))
		n.states = append(n.states, &linkState{link: l})
		n.links[k] = id
	}
	return id
}

// Links returns the number of link channels the net has resolved; link
// ids run from 0 to Links()-1 in first-use order.
func (n *Net) Links() int { return len(n.states) }

// Link returns the link of channel id.
func (n *Net) Link(id int32) fabric.Link { return n.states[id].link }

// linkIDs returns a cache entry's admission-controlled link ids in
// acquisition order.
func (n *Net) linkIDs(xp *xbarPath) []int32 {
	end := xp.off + int32(xp.nlinks)
	return n.routeLinks[xp.off:end:end]
}

// xpath returns (deriving on first use) the cached routing work from
// src's cache row to dst: hop latency, rendezvous cost and — with
// congestion on — the ids of the route's fabric-interior links already
// sorted into the global acquisition order. Every source node of one
// cache key shares the entry, which the topology's CacheKey contract
// makes exact (the node-port cable, the only per-node link, is
// excluded from admission — see Pending.admit). The cache survives
// Reset: link identities and hop counts are properties of the wiring,
// not of any one run. src and dst must be distinct nodes.
func (n *Net) xpath(src, dst fabric.NodeID) *xbarPath {
	g := dst.GlobalID()
	di := n.dsts[g] - 1
	if di < 0 {
		di = n.ndst
		n.ndst++
		n.dsts[g] = di + 1
	}
	key := n.fab.CacheKey(src)
	row := n.xpaths[key]
	if int(di) >= len(row) {
		row = n.widen(key)
	}
	xp := &row[di]
	if !xp.derived {
		pr := n.prof
		route := n.fab.RouteInto(n.rbuf[:0], src, dst)
		// len(Route) == Hops+1 for distinct nodes, pinned by the fabric
		// route tests.
		xp.hops = int32(len(route) - 1)
		xp.fabLat = units.Time(xp.hops) * pr.HopLatency
		xp.rdvExtra = 2 * (2*pr.PerSideOverhead + xp.fabLat)
		xp.off = int32(len(n.routeLinks))
		if n.pol.Enabled {
			for _, l := range route {
				if l.Kind != fabric.LinkNodePort {
					n.routeLinks = append(n.routeLinks, n.linkID(l))
				}
			}
			// Insertion sort by key: short, and routes arrive near-sorted.
			ids := n.routeLinks[xp.off:]
			for i := 1; i < len(ids); i++ {
				for j := i; j > 0 && n.states[ids[j]].link.Key() < n.states[ids[j-1]].link.Key(); j-- {
					ids[j], ids[j-1] = ids[j-1], ids[j]
				}
			}
			xp.nlinks = uint16(len(ids))
		}
		xp.derived = true
	}
	return xp
}

// widen gives cache row key room for every dense index assigned so far:
// a new row starts rowStart wide unless the net already routes to more
// destinations than that, and a row too narrow is copied once into a
// full-width one. The old copy stays valid for any PairPath still
// pointing into it.
func (n *Net) widen(key int) []xbarPath {
	old := n.xpaths[key]
	w := min(rowStart, n.fab.Nodes())
	if old != nil || int(n.ndst) > w {
		w = n.fab.Nodes()
	}
	row := make([]xbarPath, w)
	copy(row, old)
	n.xpaths[key] = row
	return row
}

// Transfer blocks the calling proc for the sender-visible cost of moving
// size bytes from src to dst — MPI software overhead, the rendezvous
// round trip above the eager threshold, link admission along the route,
// and the payload stream through both endpoints' HCAs — then schedules
// deliver after the fabric traversal and the receive-side overhead.
// Intra-node transfers take the shared-memory path: software overhead on
// each side, nothing on the fabric. A payload-carrying transfer parks
// the proc once while its StartTransfer chain runs, whose events fall at
// exactly the instants a sleep per interval would (a queued admission
// re-checks on the wakes a parked proc would get), so the calendar is
// bit-identical to the multi-sleep shape.
func (n *Net) Transfer(p *sim.Proc, src, dst Endpoint, size units.Size, deliver func()) {
	if src.Node == dst.Node || size <= 0 {
		send, after := n.ShortTransfer(src, dst, size)
		p.Sleep(send)
		n.eng.Schedule(after, deliver)
		return
	}
	x := n.StartTransfer(src, dst, size, deliver, p.Resumer())
	p.Park("transfer")
	n.FinishTransfer(x)
}

// ShortTransfer accounts a message that never streams through the
// adapters — intra-node, or zero-size — and returns its intervals: the
// sender-visible overhead, then the delay from the sender's completion
// to delivery, which the caller schedules when send has elapsed.
func (n *Net) ShortTransfer(src, dst Endpoint, size units.Size) (send, after units.Time) {
	n.msgs++
	ovh := n.prof.PerSideOverhead
	if src.Node == dst.Node {
		return ovh, ovh
	}
	n.wire += size
	return ovh, n.xpath(src.Node, dst.Node).fabLat + ovh
}

// PairPath resolves the routing work for a directed inter-node pair, for
// analytic models that read a route's timing terms and admission links
// (internal/surrogate, whose pass 1 reads this cache instead of keeping
// one of its own). The underlying route entry is shared
// crossbar-granular cache state. src and dst must be distinct nodes.
func (n *Net) PairPath(src, dst fabric.NodeID) PairPath {
	if src == dst {
		panic("transport: PairPath of an intra-node pair")
	}
	return PairPath{n: n, xp: n.xpath(src, dst)}
}

// Hops returns the route's crossbar traversal count (fabric.Route hops).
func (pp PairPath) Hops() int { return int(pp.xp.hops) }

// FabricLatency returns the route's pure hop-latency term (hops x the
// profile's per-hop latency).
func (pp PairPath) FabricLatency() units.Time { return pp.xp.fabLat }

// RendezvousExtra returns the rendezvous round-trip cost a message above
// the eager threshold pays before admission: two software-overhead-plus-
// fabric traversals each way.
func (pp PairPath) RendezvousExtra() units.Time { return pp.xp.rdvExtra }

// AdmissionLinks appends the route's admission-controlled links — the
// fabric-interior cables, node ports excluded — to buf in the exact
// global acquisition order Pending.admit takes them (ascending Link.Key),
// and returns the extended slice. On a congestion-off net the admission
// set is empty: no link state exists to acquire. Analytic models that
// fold offered load over the route (internal/surrogate) depend on this
// order and membership; the per-topology PairPath tests pin both.
func (pp PairPath) AdmissionLinks(buf []fabric.Link) []fabric.Link {
	for _, id := range pp.LinkIDs() {
		buf = append(buf, pp.n.Link(id))
	}
	return buf
}

// LinkIDs returns the net's ids of the links AdmissionLinks lists, in
// the same order: dense keys for per-link arrays that Net.Link resolves.
// The slice is the cache's own and must not be modified.
func (pp PairPath) LinkIDs() []int32 { return pp.n.linkIDs(pp.xp) }

// StartTransfer begins a payload-carrying transfer between distinct nodes
// as an event chain and returns its handle: software overhead,
// rendezvous, link admission and every HCA chunk are scheduled events,
// and the last chunk's interval ends by scheduling then, the caller's
// continuation, which must run FinishTransfer. It is the one start of
// every chain — the blocking Transfer's and those of the event-driven
// rank walkers of trace replay and the collectives — and allocates
// nothing once the route is cached and the net's free list holds a
// chain. Safe from event context; size must be positive.
func (n *Net) StartTransfer(src, dst Endpoint, size units.Size, deliver, then func()) *Pending {
	xp := n.xpath(src.Node, dst.Node)
	n.msgs++
	pr := &n.prof
	n.wire += size
	x := n.getXfer()
	x.then = then
	x.links = n.linkIDs(xp)
	x.fabLat = xp.fabLat
	x.hsrc = n.HCA(src.Node)
	x.hdst = n.HCA(dst.Node)
	x.deliver = deliver
	x.pairBW = pr.PairBandwidth(src.Core, dst.Core)
	x.size = size
	x.remaining = size
	x.linkIdx = 0
	x.stage = xfAdmit
	// Above the eager threshold the rendezvous round trip precedes
	// admission; folding it into the initial delay schedules admission at
	// the same instant with one calendar event fewer per large message.
	delay := pr.PerSideOverhead
	if size > pr.EagerThreshold {
		delay += xp.rdvExtra
	}
	n.eng.Schedule(delay, x.stepFn)
	return x
}

// FinishTransfer runs a completed transfer's tail — deregister the HCA
// flow, release the route's links, schedule the delivery — exactly as
// the blocking form runs it after its last sleep. Call it from the
// continuation; the handle is recycled.
func (n *Net) FinishTransfer(x *Pending) {
	ib.EndBetween(x.hsrc, x.hdst)
	for _, id := range x.links {
		n.states[id].res.Release(1)
	}
	n.eng.Schedule(x.fabLat+n.prof.PerSideOverhead, x.deliver)
	n.putXfer(x)
}

// xfer stages.
const (
	xfAdmit  = iota // overhead (and any rendezvous trip) slept; admit onto the route's links
	xfStream        // admitted; one event per HCA chunk interval
)

// Pending is one in-flight chained transfer. The step and admission
// continuations are bound once per object, and objects recycle through
// the net's free list, so a steady-state transfer allocates nothing.
type Pending struct {
	n          *Net
	then       func()  // continuation the last interval schedules
	links      []int32 // the route's admission-controlled link ids, acquisition order
	fabLat     units.Time
	hsrc, hdst *ib.HCA
	deliver    func()
	pairBW     units.Bandwidth
	size       units.Size

	stage     uint8
	linkIdx   int
	remaining units.Size

	stepFn func()   // bound step; scheduled for every chain interval
	contFn func()   // bound admission continuation after a queued grant
	free   *Pending // next in the net's free list
}

// step advances the chain by one scheduled interval.
func (x *Pending) step() {
	if x.stage == xfAdmit {
		x.admit()
	} else {
		x.stream()
	}
}

// admit takes the route's links in the global acquisition order —
// every flow uses the same total order, so the hold-and-wait graph is
// acyclic and admission can never deadlock. Free links are taken
// inline; a contended link queues the continuation (contFn finishes the
// granted link's accounting and re-enters here for the rest of the
// route), on the same FIFO and wake events a blocked proc would use.
//
// Node-port cables are routed but not admission-controlled (path drops
// them): that wire is the adapter's own port, whose sharing the ib HCA
// flow model already charges (multi-flow serialization, duplex caps).
// Gating it here too would bill the same copper twice; the transport
// owns the crossbar-to-crossbar tiers the HCA cannot see.
func (x *Pending) admit() {
	for x.linkIdx < len(x.links) {
		st := x.n.states[x.links[x.linkIdx]]
		if st.res == nil {
			st.res = sim.NewLabeledResource(x.n.eng, st, 1)
		}
		if !st.res.AcquireFn(1, x.contFn) {
			return // queued; contFn continues from this link
		}
		st.msgs++
		st.bytes += x.size
		x.linkIdx++
	}
	x.stage = xfStream
	ib.BeginBetween(x.hsrc, x.hdst, x.size)
	x.stream()
}

// stream schedules the next HCA chunk interval at the rate both
// adapters sustain this instant; the last interval schedules the
// continuation for the release-and-deliver tail.
func (x *Pending) stream() {
	chunk, t := ib.StepBetween(x.hsrc, x.hdst, x.remaining, x.pairBW)
	x.remaining -= chunk
	if x.remaining > 0 {
		x.n.eng.Schedule(t, x.stepFn)
	} else {
		x.n.eng.Schedule(t, x.then)
	}
}

// getXfer pops a pooled transfer state machine (allocating on first
// use).
func (n *Net) getXfer() *Pending {
	x := n.xfers
	if x == nil {
		x = &Pending{n: n}
		x.stepFn = x.step
		x.contFn = func() {
			st := n.states[x.links[x.linkIdx]]
			st.msgs++
			st.bytes += x.size
			x.linkIdx++
			x.admit()
		}
		return x
	}
	n.xfers = x.free
	x.free = nil
	return x
}

// putXfer returns a finished transfer to the pool.
func (n *Net) putXfer(x *Pending) {
	x.then = nil
	x.links = nil
	x.hsrc = nil
	x.hdst = nil
	x.deliver = nil
	x.free = n.xfers
	n.xfers = x
}

// LinkUsage reports one link channel's traffic and occupancy.
type LinkUsage struct {
	Link     fabric.Link
	Messages int64      // flows admitted onto the channel
	Bytes    units.Size // payload bytes carried
	PeakHeld int        // peak concurrent flows on the channel
	Queued   int64      // flows that had to wait for admission
	Wait     units.Time // total queueing delay behind the channel
	Busy     units.Time // time the channel had at least one flow
	// MeanQueue is the time-averaged admission queue length and
	// Utilization the busy fraction, both over the census horizon.
	MeanQueue   float64
	Utilization float64
}

// String renders the usage the way the CLI contention reports print it.
func (u LinkUsage) String() string {
	return fmt.Sprintf("%-28s %9d msgs %10s  wait %-10s util %5.1f%%  queue %.2f",
		u.Link, u.Messages, u.Bytes, u.Wait, 100*u.Utilization, u.MeanQueue)
}

// Census summarises link occupancy over one run.
type Census struct {
	// Horizon is the simulated instant the census was taken (the run's
	// makespan); utilizations are relative to it.
	Horizon units.Time
	// Links is the number of distinct directed link channels that
	// carried at least one flow.
	Links int
	// Queued counts flow admissions that had to wait, TotalWait their
	// cumulative queueing delay.
	Queued    int64
	TotalWait units.Time
	// PeakHeld is the highest concurrent flow count on any channel.
	PeakHeld int
	// Top holds the most contended channels, hottest first (by total
	// wait, then bytes carried, then link order).
	Top []LinkUsage
	// The uplink tier — the 2:1-tapered cables between the CUs and the
	// inter-CU switches — reported separately, so taper pressure is
	// distinguishable from middle-stage switch contention: queued flows
	// and wait on uplink cables only, and the hottest uplinks.
	UplinkQueued int64
	UplinkWait   units.Time
	TopUplinks   []LinkUsage
}

// Hotter is the census ranking: total wait first, bytes carried second,
// and — so that the top-N output is fully deterministic under ties —
// the link's total order (Key) as the final criterion. The census
// gathers links in the order the run first used them; because Hotter is
// a strict total order (no two distinct links share a Key), the sorted
// output is identical regardless of input order, which the
// equal-occupancy regression test pins.
func Hotter(a, b LinkUsage) bool {
	if a.Wait != b.Wait {
		return a.Wait > b.Wait
	}
	if a.Bytes != b.Bytes {
		return a.Bytes > b.Bytes
	}
	return a.Link.Key() < b.Link.Key()
}

// Census builds the link census, with the top contended links ranked
// hottest first. A nil receiver or a congestion-off net returns nil.
// top bounds the ranked Top/TopUplinks lists; top <= 0 returns the
// summary counters with both lists empty. Links that carried no flow
// this run (possible on a pooled Net, where Reset keeps earlier runs'
// link states alive with zeroed counters) do not appear in the census.
func (n *Net) Census(top int) *Census {
	if n == nil || n.links == nil {
		return nil
	}
	if top < 0 {
		top = 0
	}
	c := &Census{Horizon: n.eng.Now()}
	all := make([]LinkUsage, 0, len(n.states))
	var uplinks []LinkUsage
	for _, st := range n.states {
		if st.msgs == 0 {
			continue
		}
		s := st.res.Occupancy()
		u := LinkUsage{
			Link:        st.link,
			Messages:    st.msgs,
			Bytes:       st.bytes,
			PeakHeld:    s.PeakInUse,
			Queued:      s.Contended,
			Wait:        s.WaitTime,
			Busy:        s.BusyTime,
			MeanQueue:   s.MeanQueue(c.Horizon),
			Utilization: s.Utilization(c.Horizon),
		}
		c.Links++
		c.Queued += u.Queued
		c.TotalWait += u.Wait
		if u.PeakHeld > c.PeakHeld {
			c.PeakHeld = u.PeakHeld
		}
		if u.Link.Kind == fabric.LinkUplink {
			c.UplinkQueued += u.Queued
			c.UplinkWait += u.Wait
			uplinks = append(uplinks, u)
		}
		all = append(all, u)
	}
	sort.Slice(all, func(i, j int) bool { return Hotter(all[i], all[j]) })
	sort.Slice(uplinks, func(i, j int) bool { return Hotter(uplinks[i], uplinks[j]) })
	if top < len(all) {
		all = all[:top]
	}
	if top < len(uplinks) {
		uplinks = uplinks[:top]
	}
	c.Top = all[:len(all):len(all)]
	c.TopUplinks = uplinks[:len(uplinks):len(uplinks)]
	return c
}
