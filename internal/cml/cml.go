// Package cml implements the Cell Messaging Layer of §V.C: an MPI-like
// layer in which every SPE in the cluster has a unique rank and the PPEs
// and Opterons serve only as message forwarders (plus an RPC facility for
// the few services SPEs cannot perform — main-memory allocation on the
// PPE, file I/O on the Opteron).
//
// Transport selection follows the hardware path:
//
//   - same Cell socket: local-store-to-local-store DMA over the EIB
//     (0.272 us latency, ~22.4 GB/s — the measured CML fast path);
//   - same triblade, different Cell: SPE -> PPE -> DaCS/PCIe -> Opteron
//     -> DaCS/PCIe -> peer PPE -> SPE;
//   - different triblade: the full Fig. 6 path — SPE -> PPE (local,
//     0.12 us), DaCS to the Opteron (3.19 us), MPI over InfiniBand to the
//     peer Opteron (2.16 us + 220 ns/extra hop), DaCS down to the far
//     PPE, and a final local hop: 8.78 us end to end for a zero-byte
//     message between adjacent nodes.
//
// Messages execute store-and-forward on the DES as event chains — one
// calendar event per latency segment and per DaCS, DMA or HCA chunk —
// holding the DMA queues, EIB ports, DaCS pairs and HCAs they cross, so
// congestion composes naturally with everything else in flight.
package cml

import (
	"fmt"

	"roadrunner/internal/dacs"
	"roadrunner/internal/eib"
	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/params"
	"roadrunner/internal/sim"
	"roadrunner/internal/units"
)

// SPEsPerCell is the rank slots per Cell socket.
const SPEsPerCell = 8

// CellsPerNode is the Cell sockets per triblade.
const CellsPerNode = 4

// RanksPerNode is the SPE ranks one triblade contributes.
const RanksPerNode = SPEsPerCell * CellsPerNode

// Addr locates an SPE rank on the machine.
type Addr struct {
	Node fabric.NodeID
	Cell int // 0..3 within the triblade
	SPE  int // 0..7 within the socket
}

// String renders the address.
func (a Addr) String() string {
	return fmt.Sprintf("%v/cell%d/spe%d", a.Node, a.Cell, a.SPE)
}

// Message is a CML message.
type Message struct {
	Src  int
	Dst  int
	Tag  int
	Data []float64
	Size units.Size
}

// Config selects the transport profiles for a CML world.
type Config struct {
	DaCS dacs.Profile
	IB   ib.Profile
}

// CurrentSoftware returns the measured early-stack configuration.
func CurrentSoftware() Config {
	return Config{DaCS: dacs.Current(), IB: ib.OpenMPI()}
}

// PeakPCIe returns the projected hardware-limited configuration the
// paper's "best achievable" model uses.
func PeakPCIe() Config {
	return Config{DaCS: dacs.PeakPCIe(), IB: ib.OpenMPI()}
}

type cellKey struct {
	node fabric.NodeID
	cell int
}

// World is a CML communicator: one rank per SPE.
type World struct {
	eng   *sim.Engine
	fab   *fabric.System
	cfg   Config
	ranks []*Rank
	pairs map[cellKey]*dacs.Pair
	mfcs  map[cellKey][]*eib.MFC
	hcas  map[fabric.NodeID]*ib.HCA
	free  *send // recycled message chains
}

// NewWorld creates an empty CML world.
func NewWorld(eng *sim.Engine, fab *fabric.System, cfg Config) *World {
	return &World{
		eng:   eng,
		fab:   fab,
		cfg:   cfg,
		pairs: make(map[cellKey]*dacs.Pair),
		mfcs:  make(map[cellKey][]*eib.MFC),
		hcas:  make(map[fabric.NodeID]*ib.HCA),
	}
}

// AddRank places a rank at the given SPE and returns it.
func (w *World) AddRank(a Addr) *Rank {
	if a.Cell < 0 || a.Cell >= CellsPerNode || a.SPE < 0 || a.SPE >= SPEsPerCell {
		panic(fmt.Sprintf("cml: bad address %v", a))
	}
	r := &Rank{world: w, id: len(w.ranks), addr: a}
	w.ranks = append(w.ranks, r)
	ck := cellKey{a.Node, a.Cell}
	if _, ok := w.pairs[ck]; !ok {
		name := fmt.Sprintf("dacs-%v-c%d", a.Node, a.Cell)
		w.pairs[ck] = dacs.NewPair(w.eng, name, w.cfg.DaCS)
		bus := eib.NewBus(w.eng, fmt.Sprintf("eib-%v-c%d", a.Node, a.Cell))
		mfcs := make([]*eib.MFC, SPEsPerCell)
		for i := range mfcs {
			mfcs[i] = eib.NewMFC(bus, i)
		}
		w.mfcs[ck] = mfcs
	}
	if _, ok := w.hcas[a.Node]; !ok {
		w.hcas[a.Node] = ib.NewHCA(w.cfg.IB)
	}
	return r
}

// AddNodeRanks places all 32 SPE ranks of a triblade in canonical order
// (cell-major, SPE-minor) and returns them.
func (w *World) AddNodeRanks(node fabric.NodeID) []*Rank {
	out := make([]*Rank, 0, RanksPerNode)
	for c := 0; c < CellsPerNode; c++ {
		for s := 0; s < SPEsPerCell; s++ {
			out = append(out, w.AddRank(Addr{node, c, s}))
		}
	}
	return out
}

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Rank is one SPE-resident MPI rank.
type Rank struct {
	world *World
	id    int
	addr  Addr
}

// opteronCore returns the Opteron core that forwards for this rank's
// Cell (the paired core; see triblade).
func (r *Rank) opteronCore() int { return r.addr.Cell }

// leg is one store-and-forward segment of a message's path.
type leg uint8

const (
	legSocket     leg = iota // CML intra-socket latency
	legDMA                   // local-store-to-local-store DMA over the EIB
	legLocal                 // SPE <-> PPE staging
	legUp                    // DaCS Cell -> Opteron on the sender's Cell
	legDown                  // DaCS Opteron -> Cell on the receiver's Cell
	legOverhead              // MPI send-side software overhead
	legRendezvous            // IB rendezvous round trip above the eager threshold
	legStream                // payload through the sender's HCA
	legWire                  // fabric traversal and receive-side overhead
)

// The three transports' paths.
var (
	// Same socket: local-store DMA across the EIB.
	socketPath = []leg{legSocket, legDMA}
	// Same triblade, different Cell: up through DaCS, across the node,
	// back down through the peer's DaCS.
	nodePath = []leg{legLocal, legUp, legDown, legLocal}
	// Different triblade: the full Fig. 6 path.
	fabricPath = []leg{legLocal, legUp, legOverhead, legRendezvous, legStream, legWire, legDown, legLocal}
)

// send is one message in flight. Its events are bound once, and chains
// recycle through the world's free list, so a steady-state message
// allocates only its Message.
type send struct {
	w         *World
	msg       *Message
	src, dst  Addr
	path      []leg
	pc        int
	fabLat    units.Time      // internode: hops x per-hop latency
	pairBW    units.Bandwidth // internode: the core pairing's stream rate
	remaining units.Size      // HCA bytes not yet scheduled
	dacs      dacs.Send
	dma       eib.DMA
	deliver   func(*Message)
	then      func()
	stepFn    func()
	chunkFn   func()
	next      *send
}

// StartSend moves data from r to rank dst as an event chain over the
// path's store-and-forward segments: it schedules one event per latency
// segment and per DaCS, DMA or HCA chunk, and queues on the DMA queues,
// EIB ports, DaCS wires and HCAs it crosses. From the event that ends
// the last segment it runs deliver with the message, then then, the
// sender's continuation. Every path starts with a scheduled segment, so
// neither runs before StartSend returns.
func (r *Rank) StartSend(dst, tag int, data []float64, deliver func(*Message), then func()) {
	w := r.world
	if dst < 0 || dst >= len(w.ranks) {
		panic(fmt.Sprintf("cml: send to %d of %d", dst, len(w.ranks)))
	}
	to := w.ranks[dst]
	s := w.free
	if s == nil {
		s = &send{w: w}
		s.stepFn, s.chunkFn = s.step, s.chunk
	} else {
		w.free, s.next = s.next, nil
	}
	s.msg = &Message{Src: r.id, Dst: dst, Tag: tag, Data: data, Size: units.Size(8 * len(data))}
	s.src, s.dst = r.addr, to.addr
	s.deliver, s.then = deliver, then
	s.pc = 0
	switch {
	case s.src.Node == s.dst.Node && s.src.Cell == s.dst.Cell:
		s.path = socketPath
	case s.src.Node == s.dst.Node:
		s.path = nodePath
	default:
		s.path = fabricPath
		pr := &w.cfg.IB
		s.fabLat = units.Time(w.fab.Hops(s.src.Node, s.dst.Node)) * pr.HopLatency
		s.pairBW = pr.PairBandwidth(r.opteronCore(), to.opteronCore())
	}
	s.step()
}

// step starts the path's next segment; a segment that does not apply to
// the message (an empty DMA or stream, an eager message's rendezvous)
// is skipped in the same instant. After the last segment the message is
// delivered and the sender continues.
func (s *send) step() {
	w := s.w
	pr := &w.cfg.IB
	size := s.msg.Size
	for s.pc < len(s.path) {
		l := s.path[s.pc]
		s.pc++
		switch l {
		case legSocket:
			w.eng.Schedule(params.CMLIntraSocketLatency, s.stepFn)
			return
		case legDMA:
			if size > 0 {
				mfc := w.mfcs[cellKey{s.src.Node, s.src.Cell}][s.src.SPE]
				mfc.StartDMA(&s.dma, eib.Element{Kind: eib.SPE, ID: s.dst.SPE}, size, s.stepFn)
				return
			}
		case legLocal:
			w.eng.Schedule(params.LocalSegment, s.stepFn)
			return
		case legUp:
			w.pairs[cellKey{s.src.Node, s.src.Cell}].Start(&s.dacs, dacs.CellToOpteron, size, s.stepFn)
			return
		case legDown:
			w.pairs[cellKey{s.dst.Node, s.dst.Cell}].Start(&s.dacs, dacs.OpteronToCell, size, s.stepFn)
			return
		case legOverhead:
			w.eng.Schedule(pr.PerSideOverhead, s.stepFn)
			return
		case legRendezvous:
			if size > pr.EagerThreshold {
				w.eng.Schedule(2*(2*pr.PerSideOverhead+s.fabLat), s.stepFn)
				return
			}
		case legStream:
			if size > 0 {
				// Only the sender's adapter carries the flow: the
				// loopback pairing registers one egress flow.
				h := w.hcas[s.src.Node]
				ib.BeginBetween(h, h, size)
				s.remaining = size
				s.chunk()
				return
			}
		case legWire:
			w.eng.Schedule(s.fabLat+pr.PerSideOverhead, s.stepFn)
			return
		}
	}
	msg, deliver, then := s.msg, s.deliver, s.then
	s.msg, s.deliver, s.then = nil, nil, nil
	s.next, w.free = w.free, s
	deliver(msg)
	then()
}

// chunk schedules the next HCA chunk interval at the adapter's current
// sharing state; after the last one the flow ends and the path goes on.
func (s *send) chunk() {
	h := s.w.hcas[s.src.Node]
	if s.remaining == 0 {
		ib.EndBetween(h, h)
		s.step()
		return
	}
	c, t := ib.StepBetween(h, h, s.remaining, s.pairBW)
	s.remaining -= c
	s.w.eng.Schedule(t, s.chunkFn)
}
