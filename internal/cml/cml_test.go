package cml

import (
	"math"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/params"
	"roadrunner/internal/sim"
	"roadrunner/internal/units"
)

func twoNodeWorld(eng *sim.Engine) *World {
	w := NewWorld(eng, fabric.New(), CurrentSoftware())
	w.AddNodeRanks(fabric.FromGlobal(0))
	w.AddNodeRanks(fabric.FromGlobal(1))
	return w
}

// oneWay sends n values from rank src to rank dst on an idle world and
// returns the delivery time.
func oneWay(t *testing.T, w *World, eng *sim.Engine, src, dst int, n int) units.Time {
	t.Helper()
	var arrive units.Time
	w.Rank(src).StartSend(dst, 1, make([]float64, n), func(*Message) { arrive = eng.Now() }, func() {})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return arrive
}

func TestIntraSocketLatency(t *testing.T) {
	// Ranks 0 and 1 share a socket: 0.272 us zero-byte.
	eng := sim.NewEngine()
	w := twoNodeWorld(eng)
	got := oneWay(t, w, eng, 0, 1, 0)
	if got != params.CMLIntraSocketLatency {
		t.Errorf("intra-socket = %v, want 272ns", got)
	}
}

func TestIntraSocketBandwidth(t *testing.T) {
	// 128 KB between socket mates: ~22.4 GB/s.
	eng := sim.NewEngine()
	w := twoNodeWorld(eng)
	size := 128 * units.KB
	got := oneWay(t, w, eng, 0, 1, int(size)/8)
	bw := float64(size) / got.Seconds() / 1e9
	if math.Abs(bw-22.4)/22.4 > 0.05 {
		t.Errorf("intra-socket 128KB = %.1f GB/s, want ~22.4", bw)
	}
}

func TestFig6InternodeLatency(t *testing.T) {
	// Zero-byte Cell-to-Cell across adjacent nodes: 8.78 us
	// (0.12 + 3.19 + 2.16 + 3.19 + 0.12).
	eng := sim.NewEngine()
	w := twoNodeWorld(eng)
	got := oneWay(t, w, eng, 0, RanksPerNode, 0)
	want := units.FromMicroseconds(8.78)
	if d := got - want; d < -units.Nanosecond || d > units.Nanosecond {
		t.Errorf("internode Cell-to-Cell = %v, want %v", got, want)
	}
}

func TestTransportOrdering(t *testing.T) {
	// Latency must rise with distance: socket < cross-cell < internode.
	eng1 := sim.NewEngine()
	w := twoNodeWorld(eng1)
	intra := oneWay(t, w, eng1, 0, 1, 0)

	eng2 := sim.NewEngine()
	w = twoNodeWorld(eng2)
	cross := oneWay(t, w, eng2, 0, SPEsPerCell, 0) // cell 0 -> cell 1 same node

	eng3 := sim.NewEngine()
	w = twoNodeWorld(eng3)
	inter := oneWay(t, w, eng3, 0, RanksPerNode, 0)

	if !(intra < cross && cross < inter) {
		t.Errorf("ordering: %v %v %v", intra, cross, inter)
	}
	// Cross-cell crosses DaCS twice: > 6.4 us on the early stack.
	if cross < units.FromMicroseconds(6.4) {
		t.Errorf("cross-cell = %v, want > 6.4us", cross)
	}
}

func TestPeakPCIeFaster(t *testing.T) {
	engA := sim.NewEngine()
	wA := NewWorld(engA, fabric.New(), CurrentSoftware())
	wA.AddNodeRanks(fabric.FromGlobal(0))
	wA.AddNodeRanks(fabric.FromGlobal(1))
	cur := oneWay(t, wA, engA, 0, RanksPerNode, 0)

	engB := sim.NewEngine()
	wB := NewWorld(engB, fabric.New(), PeakPCIe())
	wB.AddNodeRanks(fabric.FromGlobal(0))
	wB.AddNodeRanks(fabric.FromGlobal(1))
	best := oneWay(t, wB, engB, 0, RanksPerNode, 0)

	if best >= cur {
		t.Errorf("peak PCIe %v >= current %v", best, cur)
	}
	// With 2 us PCIe crossings the best path is 0.12+2+2.16+2+0.12 = 6.4us.
	want := units.FromMicroseconds(6.4)
	if d := best - want; d < -units.Nanosecond || d > units.Nanosecond {
		t.Errorf("best path = %v, want %v", best, want)
	}
}

func TestPayloadIntegrityThroughFullPath(t *testing.T) {
	eng := sim.NewEngine()
	w := twoNodeWorld(eng)
	data := []float64{1, 2, 3, 5, 8, 13}
	var got *Message
	sent := false
	w.Rank(0).StartSend(RanksPerNode+5, 9, data, func(m *Message) { got = m }, func() { sent = got != nil })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got.Data) != 6 || got.Data[5] != 13 {
		t.Fatalf("payload = %+v", got)
	}
	if got.Src != 0 || got.Dst != RanksPerNode+5 || got.Tag != 9 || got.Size != 48 {
		t.Errorf("envelope = %+v", got)
	}
	if !sent {
		t.Error("sender continued before the delivery")
	}
}

func TestAddrValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for bad addr")
		}
	}()
	eng := sim.NewEngine()
	w := NewWorld(eng, fabric.New(), CurrentSoftware())
	w.AddRank(Addr{fabric.FromGlobal(0), 4, 0})
}
