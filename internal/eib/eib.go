// Package eib models the Cell chip's on-chip data transport: the Element
// Interconnect Bus (EIB) that links the eight SPEs, the PPE and the memory
// interface controller (MIC), and the per-SPE Memory Flow Controllers
// (MFCs) that issue DMA transfers across it.
//
// The EIB moves 96 bytes per cycle in aggregate (paper §IV.B); each
// element's port sustains 25.6 GB/s; the MIC bounds main-memory traffic to
// 25.6 GB/s; and an MFC splits DMA commands into 16 KB maximum-size
// transfers, each paying an issue overhead. These four mechanisms produce
// the paper's observed intra-chip rates (22.4 GB/s large-message CML
// bandwidth, 25.6 GB/s aggregate STREAM limit) without encoding them
// directly.
package eib

import (
	"fmt"

	"roadrunner/internal/params"
	"roadrunner/internal/sim"
	"roadrunner/internal/units"
)

// MaxDMASize is the architectural maximum for one DMA transfer.
const MaxDMASize = 16 * units.KB

// DMAQueueDepth is the MFC command queue depth.
const DMAQueueDepth = 16

// PerDMASetup is the MFC issue + completion cost per DMA command,
// calibrated so that a 128 KB local-store-to-local-store message sustains
// the paper's measured 22.4 GB/s over a 25.6 GB/s port (8 chunks of 16 KB,
// each adding ~91 ns of issue overhead).
var PerDMASetup = units.FromNanoseconds(91)

// Bus is the EIB plus MIC of one Cell chip.
type Bus struct {
	eng *sim.Engine
	// ports serialize each element's 25.6 GB/s connection to the ring.
	ports map[Element]*sim.Resource
	// mic serializes main-memory access at 25.6 GB/s.
	mic *sim.Resource

	ringBusy *sim.Resource // unit-capacity token per concurrent ring slot
}

// Element identifies an EIB client on one chip.
type Element struct {
	Kind ElementKind
	ID   int // SPE number for SPEs, 0 otherwise
}

// ElementKind enumerates EIB clients.
type ElementKind int

// EIB client kinds.
const (
	SPE ElementKind = iota
	PPE
	MICPort // the memory controller
	IOIF    // the I/O interface (FlexIO toward the PCIe bridge)
)

// String renders an element name.
func (e Element) String() string {
	switch e.Kind {
	case SPE:
		return fmt.Sprintf("SPE%d", e.ID)
	case PPE:
		return "PPE"
	case MICPort:
		return "MIC"
	default:
		return "IOIF"
	}
}

// NewBus constructs the EIB for one chip on the given engine.
func NewBus(eng *sim.Engine, chipName string) *Bus {
	b := &Bus{
		eng:   eng,
		ports: make(map[Element]*sim.Resource),
		mic:   sim.NewResource(eng, chipName+"/MIC", 1),
	}
	for i := 0; i < 8; i++ {
		e := Element{SPE, i}
		b.ports[e] = sim.NewResource(eng, fmt.Sprintf("%s/%v.port", chipName, e), 1)
	}
	b.ports[Element{PPE, 0}] = sim.NewResource(eng, chipName+"/PPE.port", 1)
	b.ports[Element{MICPort, 0}] = sim.NewResource(eng, chipName+"/MIC.port", 1)
	b.ports[Element{IOIF, 0}] = sim.NewResource(eng, chipName+"/IOIF.port", 1)
	// The ring carries up to 96/16 = 6 concurrent 25.6 GB/s transfers
	// before aggregate bandwidth saturates. Model as 12 half-rate slots
	// to keep granularity fine; in practice port limits dominate.
	b.ringBusy = sim.NewResource(eng, chipName+"/EIB.ring", 12)
	return b
}

// PortBandwidth is each element's connection rate to the ring.
const PortBandwidth = params.CellMemBandwidth // 25.6 GB/s

// MFC is one SPE's Memory Flow Controller: it turns DMA commands into
// chunked EIB transfers with per-command overheads and a bounded queue.
type MFC struct {
	bus   *Bus
	spe   Element
	queue *sim.Resource
}

// NewMFC creates the MFC for SPE id on bus b.
func NewMFC(b *Bus, id int) *MFC {
	return &MFC{
		bus:   b,
		spe:   Element{SPE, id},
		queue: sim.NewResource(b.eng, fmt.Sprintf("MFC%d.queue", id), DMAQueueDepth),
	}
}

// DMA is one MFC command in flight as an event chain. The caller owns the
// value and may start the next command on it once the previous one's
// continuation has run; its events are bound on first use, so a reused
// DMA allocates nothing.
type DMA struct {
	mfc       *MFC
	remaining units.Size
	chunk     units.Size
	from, to  *sim.Resource    // the endpoint ports
	mic       bool             // the peer is main memory: the MIC is held too
	path      [4]*sim.Resource // per-chunk admission order
	npath     int
	held      int // path entries taken for the current chunk
	stage     uint8
	then      func()
	stepFn    func()
	grantFn   func()
}

// DMA stages: waiting for a queue slot, paying a chunk's issue overhead,
// taking the chunk's path, moving the chunk over the ring.
const (
	dmaQueued = iota
	dmaSetup
	dmaAdmit
	dmaWire
)

// StartDMA moves size bytes (positive) between the SPE's local store and
// the peer element on x — main memory (MICPort), the PPE, or another
// SPE's local store across the ring (the CML fast path) — and runs then
// once the last chunk has landed and the command's queue slot is
// released, from the event that ends the last interval. The command
// takes an MFC queue slot, then splits into MaxDMASize chunks: each
// pays PerDMASetup, then holds both endpoint ports (and the MIC for a
// main-memory peer) plus a ring slot for the chunk's wire time at the
// port rate. Resources are taken in one deterministic order — MIC first,
// then the ports by element name, then the ring — so opposing transfers
// cannot deadlock.
func (m *MFC) StartDMA(x *DMA, peer Element, size units.Size, then func()) {
	if size <= 0 {
		panic(fmt.Sprintf("eib: DMA of %v", size))
	}
	if x.stepFn == nil {
		x.stepFn, x.grantFn = x.step, x.granted
	}
	b := m.bus
	x.mfc, x.remaining, x.then = m, size, then
	x.from, x.to = b.ports[m.spe], b.ports[peer]
	x.mic = peer.Kind == MICPort
	x.npath = 0
	if x.mic {
		x.add(b.mic)
	}
	if x.from == x.to {
		x.add(x.from)
	} else if m.spe.String() > peer.String() {
		x.add(x.to)
		x.add(x.from)
	} else {
		x.add(x.from)
		x.add(x.to)
	}
	x.add(b.ringBusy)
	x.stage = dmaQueued
	if m.queue.AcquireFn(1, x.grantFn) {
		x.granted()
	}
}

// add appends a resource to the chunk admission order.
func (x *DMA) add(r *sim.Resource) {
	x.path[x.npath] = r
	x.npath++
}

// granted continues the chain once a queued acquisition (the queue
// slot, or the path resource at held) has been taken on its behalf.
func (x *DMA) granted() {
	if x.stage == dmaQueued {
		x.setup()
		return
	}
	x.held++
	x.admit()
}

// setup schedules the next chunk's issue overhead.
func (x *DMA) setup() {
	x.chunk = min(x.remaining, MaxDMASize)
	x.stage = dmaSetup
	x.mfc.bus.eng.Schedule(PerDMASetup, x.stepFn)
}

// admit takes the chunk's path in order; a busy resource queues the
// chain, and granted resumes it at the next entry.
func (x *DMA) admit() {
	for x.held < x.npath {
		if !x.path[x.held].AcquireFn(1, x.grantFn) {
			return
		}
		x.held++
	}
	x.stage = dmaWire
	x.mfc.bus.eng.Schedule(PortBandwidth.TransferTime(x.chunk), x.stepFn)
}

// step ends a scheduled interval: the issue overhead, or a chunk's wire
// time, after which the chunk's path is released and the next chunk
// starts or the command completes.
func (x *DMA) step() {
	if x.stage == dmaSetup {
		x.stage = dmaAdmit
		x.held = 0
		x.admit()
		return
	}
	b := x.mfc.bus
	b.ringBusy.Release(1)
	x.from.Release(1)
	if x.to != x.from {
		x.to.Release(1)
	}
	if x.mic {
		b.mic.Release(1)
	}
	x.remaining -= x.chunk
	if x.remaining > 0 {
		x.setup()
		return
	}
	x.mfc.queue.Release(1)
	x.then()
}

// TransferTime returns the no-contention duration of a DMA of the given
// size, for analytic callers (the wavefront model).
func TransferTime(size units.Size) units.Time {
	if size <= 0 {
		return 0
	}
	var t units.Time
	for size > 0 {
		chunk := size
		if chunk > MaxDMASize {
			chunk = MaxDMASize
		}
		t += PerDMASetup + PortBandwidth.TransferTime(chunk)
		size -= chunk
	}
	return t
}
