package ib

import (
	"math"
	"testing"
	"testing/quick"

	"roadrunner/internal/sim"
	"roadrunner/internal/units"
)

func TestZeroByteMatchesFig6(t *testing.T) {
	pr := OpenMPI()
	// Fig. 6: the Opteron-to-Opteron MPI/IB segment is 2.16 us for
	// adjacent nodes (one crossbar hop).
	if got := pr.ZeroByteLatency(1); got != units.FromMicroseconds(2.16) {
		t.Errorf("1-hop zero-byte = %v, want 2.16us", got)
	}
}

func TestHopLatencySteps(t *testing.T) {
	pr := OpenMPI()
	// Each extra crossbar adds 220 ns.
	d := pr.ZeroByteLatency(5) - pr.ZeroByteLatency(3)
	if d != 440*units.Nanosecond {
		t.Errorf("2-hop delta = %v, want 440ns", d)
	}
}

func TestPairBandwidthMatchesFig8(t *testing.T) {
	pr := OpenMPI()
	if got := pr.PairBandwidth(1, 3).MBps(); math.Abs(got-1478) > 1 {
		t.Errorf("near pair = %v, want 1478", got)
	}
	if got := pr.PairBandwidth(0, 2).MBps(); math.Abs(got-1087) > 1 {
		t.Errorf("far pair = %v, want 1087", got)
	}
	// Mixed pair sits between the two (Fig. 8's "Core 0 to Core 1").
	mixed := pr.PairBandwidth(0, 1).MBps()
	if mixed <= 1087 || mixed >= 1478 {
		t.Errorf("mixed pair = %v, want between 1087 and 1478", mixed)
	}
}

func TestEagerRendezvousJump(t *testing.T) {
	pr := OpenMPI()
	below := pr.OneWay(pr.EagerThreshold, 1, 1, 1)
	above := pr.OneWay(pr.EagerThreshold+1*units.KB, 1, 1, 1)
	// The rendezvous round trip is visible as a discontinuity.
	if above-below < pr.ZeroByteLatency(1) {
		t.Errorf("no rendezvous jump: %v -> %v", below, above)
	}
}

func TestOneWayMonotoneInHops(t *testing.T) {
	pr := OpenMPI()
	f := func(sz uint16, h uint8) bool {
		size := units.Size(sz)
		hops := int(h%7) + 1
		return pr.OneWay(size, hops, 1, 3) <= pr.OneWay(size, hops+2, 1, 3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBandwidthAtLargeMessage(t *testing.T) {
	pr := OpenMPI()
	// 1 MB near-core flow approaches 1,478 MB/s.
	got := pr.BandwidthAt(1*units.MB, 3, 1, 3).MBps()
	if got < 1350 || got > 1478 {
		t.Errorf("1MB near = %v MB/s", got)
	}
}

// flow streams size bytes from src to dst as an event chain —
// BeginBetween, one event per StepBetween interval, EndBetween — from
// now, and reports its duration to done.
func flow(eng *sim.Engine, src, dst *HCA, size units.Size, pairBW units.Bandwidth, done func(units.Time)) {
	start := eng.Now()
	BeginBetween(src, dst, size)
	remaining := size
	var step func()
	step = func() {
		if remaining == 0 {
			EndBetween(src, dst)
			done(eng.Now() - start)
			return
		}
		chunk, t := StepBetween(src, dst, remaining, pairBW)
		remaining -= chunk
		eng.Schedule(t, step)
	}
	step()
}

// slowest records the longest duration reported to it.
func slowest(d *units.Time) func(units.Time) {
	return func(t units.Time) {
		if t > *d {
			*d = t
		}
	}
}

func TestHCASingleFlowFullRate(t *testing.T) {
	// A single-ended stream (the loopback pairing registers one egress
	// flow) on an idle adapter runs at the pair rate.
	eng := sim.NewEngine()
	h := NewHCA(OpenMPI())
	size := 1 * units.MB
	var dur units.Time
	flow(eng, h, h, size, h.Profile.NearBandwidth, slowest(&dur))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := h.Profile.NearBandwidth.TransferTime(size)
	if d := dur - want; d < -units.Nanosecond || d > units.Nanosecond {
		t.Errorf("single flow = %v, want %v", dur, want)
	}
}

func TestHCAFourFlowSharing(t *testing.T) {
	// Fig. 7 internode unidirectional: four Cell-Opteron pairs share the
	// HCA; the worst pair's rate is MultiFlow/4 ~ 272 MB/s.
	eng := sim.NewEngine()
	h := NewHCA(OpenMPI())
	size := 1 * units.MB
	var worst units.Time
	for i := 0; i < 4; i++ {
		flow(eng, h, h, size, h.Profile.PairBandwidth(1, 3), slowest(&worst))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	bw := float64(size) / worst.Seconds() / 1e6
	if math.Abs(bw-272)/272 > 0.05 {
		t.Errorf("worst of 4 flows = %.0f MB/s, want ~272", bw)
	}
}

func TestHCADuplexCap(t *testing.T) {
	// Eight flows, four per direction: per-flow 1.5 GB/s / 8 = 187.5
	// MB/s; a pair's two directions total ~375 MB/s (Fig. 7 internode
	// bidirectional). The egress flows are single-ended; each ingress
	// flow comes from an otherwise idle adapter.
	eng := sim.NewEngine()
	pr := OpenMPI()
	h := NewHCA(pr)
	size := 1 * units.MB
	var worst units.Time
	for i := 0; i < 8; i++ {
		src := h
		if i%2 == 1 {
			src = NewHCA(pr)
		}
		flow(eng, src, h, size, pr.PairBandwidth(1, 3), slowest(&worst))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	perFlow := float64(size) / worst.Seconds() / 1e6
	pairAggregate := perFlow * 2
	if math.Abs(pairAggregate-375)/375 > 0.05 {
		t.Errorf("duplex pair aggregate = %.0f MB/s, want ~375", pairAggregate)
	}
}

func TestNearCore(t *testing.T) {
	if !NearCore(1) || !NearCore(3) || NearCore(0) || NearCore(2) {
		t.Error("core proximity map")
	}
}

func TestStreamBetweenSingleFlowFullRate(t *testing.T) {
	// With idle adapters on both ends, a pair stream runs at the pair
	// bandwidth, identical to a single-ended stream.
	eng := sim.NewEngine()
	pr := OpenMPI()
	src, dst := NewHCA(pr), NewHCA(pr)
	size := 1 * units.MB
	var dur units.Time
	flow(eng, src, dst, size, pr.NearBandwidth, slowest(&dur))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := pr.NearBandwidth.TransferTime(size)
	if d := dur - want; d < -units.Nanosecond || d > units.Nanosecond {
		t.Errorf("pair stream = %v, want %v", dur, want)
	}
	if src.ActiveFlows(0) != 0 || dst.ActiveFlows(1) != 0 {
		t.Error("flow accounting leaked")
	}
	// Cumulative endpoint accounting: one egress flow on src, one
	// ingress flow on dst, all bytes attributed, peak concurrency 1.
	ss, ds := src.Stats(), dst.Stats()
	if ss.Flows != [2]int64{1, 0} || ds.Flows != [2]int64{0, 1} {
		t.Errorf("flow counts: src %v dst %v", ss.Flows, ds.Flows)
	}
	if ss.Bytes[0] != size || ds.Bytes[1] != size {
		t.Errorf("byte counts: src %v dst %v", ss.Bytes, ds.Bytes)
	}
	if ss.Peak != [2]int{1, 0} || ds.Peak != [2]int{0, 1} {
		t.Errorf("peaks: src %v dst %v", ss.Peak, ds.Peak)
	}
}

func TestStreamBetweenDuplexExchange(t *testing.T) {
	// A symmetric exchange (each node sends to and receives from the
	// other, as every ring/recursive-doubling collective stage does) puts
	// one flow in each direction on both HCAs: the duplex aggregate cap
	// bounds each direction at 1.5 GB/s / 2 = 750 MB/s.
	eng := sim.NewEngine()
	pr := OpenMPI()
	a, b := NewHCA(pr), NewHCA(pr)
	size := 1 * units.MB
	var worst units.Time
	flow(eng, a, b, size, pr.PairBandwidth(1, 3), slowest(&worst))
	flow(eng, b, a, size, pr.PairBandwidth(1, 3), slowest(&worst))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	bw := float64(size) / worst.Seconds() / 1e6
	if math.Abs(bw-750)/750 > 0.05 {
		t.Errorf("duplex exchange per-direction = %.0f MB/s, want ~750", bw)
	}
}

func TestStreamBetweenIngressSerialization(t *testing.T) {
	// Two senders into one receiver: the receiver's ingress side
	// serializes the flows at the chipset rate, so each sees ~MultiFlow/2
	// even though both egress adapters are otherwise idle.
	eng := sim.NewEngine()
	pr := OpenMPI()
	dst := NewHCA(pr)
	size := 1 * units.MB
	var worst units.Time
	for i := 0; i < 2; i++ {
		flow(eng, NewHCA(pr), dst, size, pr.PairBandwidth(1, 3), slowest(&worst))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := float64(pr.MultiFlowBandwidth) / 2 / 1e6
	bw := float64(size) / worst.Seconds() / 1e6
	if math.Abs(bw-want)/want > 0.05 {
		t.Errorf("2-into-1 per-flow = %.0f MB/s, want ~%.0f", bw, want)
	}
}

func TestStreamBetweenSameHCALoopback(t *testing.T) {
	eng := sim.NewEngine()
	pr := OpenMPI()
	h := NewHCA(pr)
	var dur units.Time
	flow(eng, h, h, 64*units.KB, pr.NearBandwidth, slowest(&dur))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := pr.NearBandwidth.TransferTime(64 * units.KB); dur != want {
		t.Errorf("loopback = %v, want %v", dur, want)
	}
}
