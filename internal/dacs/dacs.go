// Package dacs models IBM's Data Communication and Synchronization
// library as measured on pre-production Roadrunner: the Cell<->Opteron
// transport over the PCIe x8 links through the HT2100 bridges.
//
// The early DaCS stack is the paper's central software-maturity finding:
// a 3.19 us one-way zero-byte latency (vs 2 us raw PCIe), a rendezvous
// pin/copy overhead on non-tiny messages, and a sustained stream rate of
// ~1.0 GB/s against the 1.6 GB/s the raw PCIe microbenchmark achieves.
// The per-pair driver serialization limits a bidirectional exchange to
// ~1.3 GB/s aggregate — 64% of twice the unidirectional rate (Fig. 7).
//
// Both an analytic model (OneWay/BandwidthAt, used by figures and the
// wavefront model) and a DES transport (Pair.Start, an event chain CML's
// messages run through) are provided; they agree by construction.
package dacs

import (
	"fmt"

	"roadrunner/internal/params"
	"roadrunner/internal/sim"
	"roadrunner/internal/units"
)

// Profile holds the DaCS performance parameters. Two profiles matter:
// the measured early stack (Current) and the hardware-limited stack the
// paper projects ("if the peak PCIe performance were to be realized").
type Profile struct {
	Name string
	// Latency is the one-way zero-byte message latency.
	Latency units.Time
	// EagerThreshold: messages at or below this bypass the rendezvous.
	EagerThreshold units.Size
	// RendezvousOverhead is the fixed pin/copy/handshake cost a message
	// above EagerThreshold pays.
	RendezvousOverhead units.Time
	// StreamBandwidth is the sustained unidirectional rate.
	StreamBandwidth units.Bandwidth
	// PairAggregate caps the two directions' combined rate (driver
	// serialization at the HT2100 bridge path).
	PairAggregate units.Bandwidth
}

// Current returns the measured early-software DaCS profile.
func Current() Profile {
	return Profile{
		Name:               "DaCS (early stack)",
		Latency:            params.DaCSLatency,
		EagerThreshold:     512 * units.Byte,
		RendezvousOverhead: units.FromMicroseconds(12),
		StreamBandwidth:    1.01 * units.GBPerSec,
		PairAggregate:      1.295 * units.GBPerSec,
	}
}

// PeakPCIe returns the hardware-limited profile the paper uses for its
// "best achievable" projections: 2 us latency and 1.6 GB/s streams
// (§VI.A), with the same 64% duplex efficiency.
func PeakPCIe() Profile {
	return Profile{
		Name:               "peak PCIe",
		Latency:            params.PCIeMinLatency,
		EagerThreshold:     512 * units.Byte,
		RendezvousOverhead: units.FromMicroseconds(1),
		StreamBandwidth:    params.PCIeAchievableBandwidth,
		PairAggregate:      units.Bandwidth(float64(params.PCIeAchievableBandwidth) * 2 * 0.64),
	}
}

// OneWay returns the no-contention one-way time for a message of the
// given size.
func (pr Profile) OneWay(size units.Size) units.Time {
	t := pr.Latency
	if size > pr.EagerThreshold {
		t += pr.RendezvousOverhead
	}
	t += pr.StreamBandwidth.TransferTime(size)
	return t
}

// BandwidthAt returns the effective unidirectional bandwidth for a
// message of the given size (ping-pong convention: size over one-way
// time).
func (pr Profile) BandwidthAt(size units.Size) units.Bandwidth {
	if size <= 0 {
		return 0
	}
	return units.Bandwidth(float64(size) / pr.OneWay(size).Seconds())
}

// Dir is a transfer direction across a Cell<->Opteron pair.
type Dir int

// Transfer directions.
const (
	CellToOpteron Dir = iota
	OpteronToCell
)

// String names the direction.
func (d Dir) String() string {
	if d == CellToOpteron {
		return "Cell->Opteron"
	}
	return "Opteron->Cell"
}

// chunkSize is the granularity at which the DES transport re-evaluates
// contention between the two directions.
const chunkSize = 64 * units.KB

// Pair is the DES transport between one Cell's PPE and its Opteron core.
type Pair struct {
	Profile Profile
	eng     *sim.Engine
	wire    [2]*sim.Resource // per-direction FIFO
	active  [2]int           // senders currently streaming per direction
}

// NewPair creates a DaCS endpoint pair on the engine.
func NewPair(eng *sim.Engine, name string, pr Profile) *Pair {
	p := &Pair{Profile: pr, eng: eng}
	p.wire[0] = sim.NewResource(eng, name+"/c2o", 1)
	p.wire[1] = sim.NewResource(eng, name+"/o2c", 1)
	return p
}

// Send is one message crossing a Pair as an event chain. The caller owns
// the value and may start the next message on it once the previous
// one's continuation has run; its step event is bound on first use, so a
// reused Send allocates nothing.
type Send struct {
	pair      *Pair
	dir       Dir
	size      units.Size
	remaining units.Size
	stage     uint8
	then      func()
	stepFn    func()
}

// Send stages: the wire is granted; the latency, then the rendezvous
// overhead, is elapsing; the payload is streaming.
const (
	sendGranted = iota
	sendLatency
	sendRendezvous
	sendStream
)

// Start moves size bytes across the pair in direction d on s, modelling
// per-direction FIFO ordering and duplex driver contention, and runs
// then once the message has fully arrived at the far side and the
// direction's wire is released, from the event that ends its last
// interval. The chain takes the wire (queueing FIFO behind earlier
// messages), then schedules one event for the latency, one for the
// rendezvous overhead above the eager threshold, and one per stream
// chunk at the rate the duplex state allows when the chunk starts.
func (pa *Pair) Start(s *Send, d Dir, size units.Size, then func()) {
	if d != CellToOpteron && d != OpteronToCell {
		panic(fmt.Sprintf("dacs: bad direction %d", d))
	}
	if s.stepFn == nil {
		s.stepFn = s.step
	}
	s.pair, s.dir, s.size, s.then = pa, d, size, then
	s.stage = sendGranted
	if pa.wire[d].AcquireFn(1, s.stepFn) {
		s.step()
	}
}

// step advances the chain by one interval.
func (s *Send) step() {
	pa := s.pair
	pr := &pa.Profile
	switch s.stage {
	case sendGranted:
		s.stage = sendLatency
		pa.eng.Schedule(pr.Latency, s.stepFn)
		return
	case sendLatency, sendRendezvous:
		if s.stage == sendLatency && s.size > pr.EagerThreshold {
			s.stage = sendRendezvous
			pa.eng.Schedule(pr.RendezvousOverhead, s.stepFn)
			return
		}
		s.stage = sendStream
		pa.active[s.dir]++
		s.remaining = s.size
	}
	if s.remaining > 0 {
		chunk := min(s.remaining, chunkSize)
		rate := pr.StreamBandwidth
		if pa.active[1-s.dir] > 0 {
			// Duplex: both directions share the driver path.
			rate = pr.PairAggregate / 2
		}
		s.remaining -= chunk
		pa.eng.Schedule(rate.TransferTime(chunk), s.stepFn)
		return
	}
	pa.active[s.dir]--
	pa.wire[s.dir].Release(1)
	s.then()
}
