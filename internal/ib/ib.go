// Package ib models Open MPI over Roadrunner's 4x DDR InfiniBand: the
// per-message software overheads, the eager/rendezvous protocol switch,
// the 220 ns-per-crossbar-hop fabric traversal, and the node-level HCA
// sharing effects of Figs. 7, 8 and 10.
//
// Core-pair asymmetry (Fig. 8): the Mellanox HCA hangs off one HT2100
// bridge, closer to Opteron cores 1 and 3; flows from cores 1/3 sustain
// 1,478 MB/s while flows from cores 0/2 cross an extra HyperTransport
// segment and sustain 1,087 MB/s. When several flows share the HCA the
// chipset serializes them at the far-path rate, and a full-duplex
// exchange is capped by the HCA's ~1.5 GB/s combined limit — these two
// mechanisms produce Fig. 7's internode curves.
package ib

import (
	"roadrunner/internal/params"
	"roadrunner/internal/units"
)

// Profile holds the Open MPI + InfiniBand protocol constants.
type Profile struct {
	Name string
	// PerSideOverhead is the MPI send/recv software cost on each side;
	// two sides plus one crossbar hop compose the 2.16 us same-crossbar
	// one-way latency of Fig. 6.
	PerSideOverhead units.Time
	// HopLatency is per crossbar traversal (220 ns).
	HopLatency units.Time
	// EagerThreshold: larger messages pay a rendezvous round trip.
	EagerThreshold units.Size
	// NearBandwidth / FarBandwidth: single-flow stream rate by core
	// proximity to the HCA.
	NearBandwidth units.Bandwidth
	FarBandwidth  units.Bandwidth
	// MultiFlowBandwidth: per-direction HCA capacity once several flows
	// share it (chipset-serialized).
	MultiFlowBandwidth units.Bandwidth
	// DuplexAggregate caps combined two-direction HCA throughput.
	DuplexAggregate units.Bandwidth
	// PinnedBandwidth is the large-message rate with registered buffers.
	PinnedBandwidth units.Bandwidth
}

// OpenMPI returns the measured Open MPI/IB profile.
func OpenMPI() Profile {
	return Profile{
		Name:               "Open MPI / IB 4x DDR",
		PerSideOverhead:    params.MPISoftwareOverhead,
		HopLatency:         params.SwitchHopLatency,
		EagerThreshold:     params.IBEagerThreshold,
		NearBandwidth:      params.IBNearCoreBandwidth,
		FarBandwidth:       params.IBFarCoreBandwidth,
		MultiFlowBandwidth: params.IBFarCoreBandwidth,
		DuplexAggregate:    1.5 * units.GBPerSec,
		PinnedBandwidth:    params.IBPinnedBandwidth,
	}
}

// NearCore reports whether an Opteron core index is on the HCA-adjacent
// bridge (cores 1 and 3).
func NearCore(core int) bool { return core%2 == 1 }

// PairBandwidth returns the single-flow stream rate between two cores on
// different nodes, per Fig. 8: both near -> 1,478 MB/s; both far ->
// 1,087 MB/s; mixed -> limited by the far end's extra HT crossing but
// helped by the near end, modelled as the harmonic mean.
func (pr Profile) PairBandwidth(coreA, coreB int) units.Bandwidth {
	a, b := NearCore(coreA), NearCore(coreB)
	switch {
	case a && b:
		return pr.NearBandwidth
	case !a && !b:
		return pr.FarBandwidth
	default:
		n, f := float64(pr.NearBandwidth), float64(pr.FarBandwidth)
		return units.Bandwidth(2 * n * f / (n + f))
	}
}

// OneWay returns the no-contention one-way message time between two
// nodes separated by the given crossbar hop count, from the given core
// pairing.
func (pr Profile) OneWay(size units.Size, hops int, coreA, coreB int) units.Time {
	t := 2*pr.PerSideOverhead + units.Time(hops)*pr.HopLatency
	if size > pr.EagerThreshold {
		// Rendezvous: request + clear-to-send round trip at zero payload.
		t += 2 * (2*pr.PerSideOverhead + units.Time(hops)*pr.HopLatency)
	}
	t += pr.PairBandwidth(coreA, coreB).TransferTime(size)
	return t
}

// BandwidthAt returns size over one-way time, the ping-pong convention.
func (pr Profile) BandwidthAt(size units.Size, hops int, coreA, coreB int) units.Bandwidth {
	if size <= 0 {
		return 0
	}
	return units.Bandwidth(float64(size) / pr.OneWay(size, hops, coreA, coreB).Seconds())
}

// ZeroByteLatency returns the one-way zero-byte latency over the given
// hop count — the quantity Fig. 10 maps across all 3,060 nodes.
func (pr Profile) ZeroByteLatency(hops int) units.Time {
	return 2*pr.PerSideOverhead + units.Time(hops)*pr.HopLatency
}

// chunkSize is the contention re-evaluation granularity of the DES HCA.
const chunkSize = 64 * units.KB

// HCA is the DES model of one node's InfiniBand adapter: it tracks the
// flows currently streaming in each direction and serves each chunk at
// the rate the sharing rules dictate.
type HCA struct {
	Profile Profile
	active  [2]int // flows per direction (0 = egress, 1 = ingress)

	// Endpoint flow accounting, composable with the transport layer's
	// link occupancy census: cumulative flows and bytes per direction,
	// and the sharing high-water mark.
	flows [2]int64
	bytes [2]units.Size
	peak  [2]int
}

// HCAStats snapshots one adapter's cumulative flow accounting.
type HCAStats struct {
	Flows [2]int64      // flows started per direction (0 egress, 1 ingress)
	Bytes [2]units.Size // bytes streamed per direction
	Peak  [2]int        // peak concurrent flows per direction
}

// Stats returns the adapter's cumulative flow accounting.
func (h *HCA) Stats() HCAStats {
	return HCAStats{Flows: h.flows, Bytes: h.bytes, Peak: h.peak}
}

// addFlow registers one flow in the given direction and updates the
// accounting.
func (h *HCA) addFlow(dir int, size units.Size) {
	h.active[dir]++
	h.flows[dir]++
	h.bytes[dir] += size
	if h.active[dir] > h.peak[dir] {
		h.peak[dir] = h.active[dir]
	}
}

// ResetStats zeroes the cumulative flow accounting so a pooled adapter
// starts the next run fresh. The adapter must be idle — resetting with
// flows still streaming would desynchronize the sharing state from the
// counters, so it panics instead.
func (h *HCA) ResetStats() {
	if h.active[0] != 0 || h.active[1] != 0 {
		panic("ib: HCA stats reset with active flows")
	}
	h.flows = [2]int64{}
	h.bytes = [2]units.Size{}
	h.peak = [2]int{}
}

// NewHCA creates an idle HCA. The flows through it are driven by their
// callers' event chains (BeginBetween, StepBetween, EndBetween).
func NewHCA(pr Profile) *HCA {
	return &HCA{Profile: pr}
}

// FlowRate returns the per-flow rate given the current sharing state and
// the flow's core pairing.
func (h *HCA) flowRate(dir int, pairBW units.Bandwidth) units.Bandwidth {
	pr := &h.Profile
	rate := pairBW
	if n := h.active[dir]; n > 1 {
		shared := pr.MultiFlowBandwidth / units.Bandwidth(n)
		if shared < rate {
			rate = shared
		}
	}
	if h.active[0] > 0 && h.active[1] > 0 {
		total := h.active[0] + h.active[1]
		duplex := pr.DuplexAggregate / units.Bandwidth(total)
		if duplex < rate {
			rate = duplex
		}
	}
	return rate
}

// ActiveFlows reports the number of flows currently streaming in the
// given direction (0 egress, 1 ingress).
func (h *HCA) ActiveFlows(dir int) int { return h.active[dir] }

// BeginBetween registers a flow of size bytes from the src HCA (egress
// side) to the dst HCA (ingress side); a loopback pairing (src == dst)
// registers one egress flow, the single-ended stream a sender's adapter
// carries alone. With StepBetween and EndBetween it is the event-chain
// form of a stream: a caller schedules one event per StepBetween
// interval, re-evaluating the rate chunk by chunk against the sharing
// state of both adapters — the sender's egress flows serialize at the
// chipset rate, the receiver's ingress flows do the same, and a node
// that is simultaneously sending and receiving hits its duplex aggregate
// cap. This is the wire model of the transport's chained transfers and
// of CML's internode leg.
func BeginBetween(src, dst *HCA, size units.Size) {
	src.addFlow(0, size)
	if src != dst {
		dst.addFlow(1, size)
	}
}

// StepBetween returns the next chunk's size and its transfer time at
// the adapters' current sharing state (the rate both endpoints can
// sustain this instant).
func StepBetween(src, dst *HCA, remaining units.Size, pairBW units.Bandwidth) (units.Size, units.Time) {
	chunk := remaining
	if chunk > chunkSize {
		chunk = chunkSize
	}
	rate := src.flowRate(0, pairBW)
	if src != dst {
		if r := dst.flowRate(1, pairBW); r < rate {
			rate = r
		}
	}
	return chunk, rate.TransferTime(chunk)
}

// EndBetween deregisters a flow started by BeginBetween.
func EndBetween(src, dst *HCA) {
	src.active[0]--
	if src != dst {
		dst.active[1]--
	}
}
