package dacs

import (
	"math"
	"testing"
	"testing/quick"

	"roadrunner/internal/sim"
	"roadrunner/internal/units"
)

func TestZeroByteLatencyIsFig6Segment(t *testing.T) {
	pr := Current()
	if got := pr.OneWay(0); got != units.FromMicroseconds(3.19) {
		t.Errorf("zero-byte one-way = %v, want 3.19us", got)
	}
}

func TestEagerVsRendezvous(t *testing.T) {
	pr := Current()
	small := pr.OneWay(512)
	big := pr.OneWay(2 * units.KB)
	// The rendezvous overhead creates a jump at the threshold.
	if big-small < pr.RendezvousOverhead/2 {
		t.Errorf("no rendezvous jump: %v -> %v", small, big)
	}
}

func TestOneWayMonotoneProperty(t *testing.T) {
	pr := Current()
	f := func(a, b uint32) bool {
		x, y := units.Size(a), units.Size(b)
		if x > y {
			x, y = y, x
		}
		return pr.OneWay(x) <= pr.OneWay(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLargeMessageBandwidth(t *testing.T) {
	pr := Current()
	// 1 MB messages approach the stream rate (~1.0 GB/s), consistent
	// with Fig. 7's intranode unidirectional curve.
	got := pr.BandwidthAt(1 * units.MB).MBps()
	if got < 950 || got > 1050 {
		t.Errorf("1MB bandwidth = %v MB/s, want ~1000", got)
	}
}

func TestPeakPCIeProfileFaster(t *testing.T) {
	cur, peak := Current(), PeakPCIe()
	if peak.OneWay(0) >= cur.OneWay(0) {
		t.Error("peak PCIe latency should beat DaCS")
	}
	if peak.OneWay(0) != units.FromMicroseconds(2) {
		t.Errorf("peak latency = %v, want 2us", peak.OneWay(0))
	}
	// 1.6 GB/s streams: at 1 MB the advantage is ~1.6x.
	r := float64(peak.BandwidthAt(1*units.MB)) / float64(cur.BandwidthAt(1*units.MB))
	if r < 1.4 || r > 1.8 {
		t.Errorf("peak/current large-message ratio = %v", r)
	}
}

func TestDESMatchesAnalytic(t *testing.T) {
	// A single uncontended message takes exactly OneWay(size).
	pr := Current()
	for _, size := range []units.Size{0, 256, 4 * units.KB, 128 * units.KB, 1 * units.MB} {
		eng := sim.NewEngine()
		pair := NewPair(eng, "p", pr)
		var got units.Time
		var s Send
		pair.Start(&s, CellToOpteron, size, func() { got = eng.Now() })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		want := pr.OneWay(size)
		if d := got - want; d < -units.Nanosecond || d > units.Nanosecond {
			t.Errorf("size %v: DES %v vs analytic %v", size, got, want)
		}
	}
}

func TestBidirectionalEfficiency(t *testing.T) {
	// Two simultaneous 4 MB streams, one per direction: the aggregate
	// rate must land at the Fig. 7 intranode ratio — ~64% of twice the
	// unidirectional rate.
	pr := Current()
	size := 4 * units.MB

	uniTime := pr.OneWay(size)
	uniBW := float64(size) / uniTime.Seconds()

	eng := sim.NewEngine()
	pair := NewPair(eng, "p", pr)
	var end units.Time
	var sends [2]Send
	for d := range sends {
		pair.Start(&sends[d], Dir(d), size, func() { end = max(end, eng.Now()) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	aggBW := 2 * float64(size) / end.Seconds()
	ratio := aggBW / (2 * uniBW)
	if math.Abs(ratio-0.64)/0.64 > 0.05 {
		t.Errorf("bidirectional efficiency = %.3f, want ~0.64", ratio)
	}
}

func TestFIFOPerDirection(t *testing.T) {
	// Messages in one direction arrive in send order.
	pr := Current()
	eng := sim.NewEngine()
	pair := NewPair(eng, "p", pr)
	var order []int
	var sends [4]Send
	for i := range sends {
		eng.Schedule(units.Time(i)*units.Nanosecond, func() {
			pair.Start(&sends[i], CellToOpteron, 32*units.KB, func() { order = append(order, i) })
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != len(sends) {
		t.Fatalf("order = %v", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestDirString(t *testing.T) {
	if CellToOpteron.String() != "Cell->Opteron" || OpteronToCell.String() != "Opteron->Cell" {
		t.Error("direction names")
	}
}
