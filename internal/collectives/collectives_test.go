package collectives

import (
	"math"
	"strings"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// mustPlace unwraps a generated placement; the tests ask only for ones
// that fit their fabric.
func mustPlace(places []transport.Endpoint, err error) []transport.Endpoint {
	if err != nil {
		panic(err)
	}
	return places
}

func testConfig(ranks int) Config {
	cus := (ranks + 179) / 180
	if cus < 1 {
		cus = 1
	}
	fab := fabric.NewScaled(cus)
	return Config{
		Fabric:  fab,
		Profile: ib.OpenMPI(),
		Places:  mustPlace(transport.BlockPlacement(fab, ranks, 1)),
	}
}

func TestAllOpsValidateAtAwkwardSizes(t *testing.T) {
	// Run validates semantic payloads internally; failure surfaces as an
	// error. Non-powers of two exercise the fold phases and the ring
	// wrap-around.
	for _, op := range Ops() {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 21} {
			if _, err := Run(testConfig(n), op, 4*units.KB); err != nil {
				t.Errorf("%s n=%d: %v", op, n, err)
			}
		}
	}
}

func TestMessageCounts(t *testing.T) {
	const n = 16
	cfg := testConfig(n)
	cases := []struct {
		op   Op
		want int64
	}{
		{BarrierRecursiveDoubling, n * 4},   // ceil(log2 16) rounds
		{BcastBinomial, n - 1},              // one receive per non-root
		{AllreduceRecursiveDoubling, n * 4}, // log2(16) exchanges
		{AllreduceRing, 2 * n * (n - 1)},    // two ring passes
		{AllgatherRing, n * (n - 1)},        // one ring pass
		{AlltoallPairwise, n * (n - 1)},     // P-1 rounds of pairs
	}
	for _, tc := range cases {
		res, err := Run(cfg, tc.op, 1*units.KB)
		if err != nil {
			t.Fatalf("%s: %v", tc.op, err)
		}
		if res.Messages != tc.want {
			t.Errorf("%s: %d messages, want %d", tc.op, res.Messages, tc.want)
		}
	}
	// Rabenseifner at a power of two: log2(P) halvings + log2(P)
	// doublings per rank.
	res, err := Run(cfg, AllreduceRabenseifner, 1*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n * 8); res.Messages != want {
		t.Errorf("rabenseifner: %d messages, want %d", res.Messages, want)
	}
}

func TestRingWireBytesBandwidthOptimal(t *testing.T) {
	// Ring allreduce moves ~2*size per rank regardless of P; recursive
	// doubling moves size*log2(P) per rank.
	const n = 16
	cfg := testConfig(n)
	size := 64 * units.KB
	ring, err := Run(cfg, AllreduceRing, size)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Run(cfg, AllreduceRecursiveDoubling, size)
	if err != nil {
		t.Fatal(err)
	}
	ringPerRank := float64(ring.WireBytes) / n
	rdPerRank := float64(rd.WireBytes) / n
	if want := 2 * float64(size) * float64(n-1) / n; math.Abs(ringPerRank-want)/want > 0.01 {
		t.Errorf("ring wire/rank = %.0f, want ~%.0f", ringPerRank, want)
	}
	if want := 4 * float64(size); math.Abs(rdPerRank-want)/want > 0.3 {
		t.Errorf("rd wire/rank = %.0f, want ~%.0f (log2(16)*size)", rdPerRank, want)
	}
}

func TestLogGrowthInHopLimitedRegime(t *testing.T) {
	// Within one CU the hop count is 1-3, so small-message broadcast and
	// barrier cost is dominated by rounds: doubling the rank count from 8
	// to 64 triples the rounds (3 -> 6) but must not blow past the extra
	// in-CU hop cost.
	for _, op := range []Op{BcastBinomial, BarrierRecursiveDoubling, AllreduceRecursiveDoubling} {
		t8, err := Run(testConfig(8), op, 8)
		if err != nil {
			t.Fatal(err)
		}
		t64, err := Run(testConfig(64), op, 8)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(t64.Time) / float64(t8.Time)
		if ratio < 1.5 || ratio > 3.5 {
			t.Errorf("%s: time(64)/time(8) = %.2f, want ~2 (rounds 6/3 with in-CU hops)", op, ratio)
		}
	}
}

func TestAllreduceAlgorithmCrossover(t *testing.T) {
	// Latency regime: recursive doubling beats the ring at tiny payloads.
	// Bandwidth regime: the ring beats recursive doubling at large ones.
	cfg := testConfig(16)
	smallRD, err := Run(cfg, AllreduceRecursiveDoubling, 64)
	if err != nil {
		t.Fatal(err)
	}
	smallRing, err := Run(cfg, AllreduceRing, 64)
	if err != nil {
		t.Fatal(err)
	}
	if smallRD.Time >= smallRing.Time {
		t.Errorf("64B: rd %v !< ring %v", smallRD.Time, smallRing.Time)
	}
	bigRD, err := Run(cfg, AllreduceRecursiveDoubling, 4*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	bigRing, err := Run(cfg, AllreduceRing, 4*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if bigRing.Time >= bigRD.Time {
		t.Errorf("4MB: ring %v !< rd %v", bigRing.Time, bigRD.Time)
	}
	bigRab, err := Run(cfg, AllreduceRabenseifner, 4*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if bigRab.Time >= bigRD.Time {
		t.Errorf("4MB: rabenseifner %v !< rd %v", bigRab.Time, bigRD.Time)
	}
}

func TestDeterministicReruns(t *testing.T) {
	cfg := testConfig(13)
	for _, op := range Ops() {
		a, err := Run(cfg, op, 32*units.KB)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg, op, 32*units.KB)
		if err != nil {
			t.Fatal(err)
		}
		if a.Time != b.Time || a.Messages != b.Messages || a.WireBytes != b.WireBytes {
			t.Errorf("%s: rerun diverged: %v/%d vs %v/%d", op, a.Time, a.Messages, b.Time, b.Messages)
		}
	}
}

func TestRootedBroadcastFromNonzeroRoot(t *testing.T) {
	cfg := testConfig(11)
	cfg.Root = 7
	res, err := Run(cfg, BcastBinomial, 1*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	for r, vec := range res.Data {
		if vec[0] != contribution(7, 0) {
			t.Errorf("rank %d got %v", r, vec[0])
		}
	}
}

func TestIntraNodeMessagesStayOffTheWire(t *testing.T) {
	// All 4 ranks on one node: messages take the shared-memory path, so
	// nothing is charged to the fabric.
	fab := fabric.NewScaled(1)
	cfg := Config{Fabric: fab, Profile: ib.OpenMPI(), Places: mustPlace(transport.PackedPlacement(fab, 4, 4))}
	res, err := Run(cfg, AllgatherRing, 64*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if res.WireBytes != 0 {
		t.Errorf("intra-node allgather put %v on the wire", res.WireBytes)
	}
	if res.Messages != 4*3 {
		t.Errorf("messages = %d", res.Messages)
	}
}

func TestPackedPlacementSharesHCAs(t *testing.T) {
	// Four ranks per node: the node's HCA serializes concurrent flows, so
	// a packed alltoall is slower than the same ranks spread one per node.
	fab := fabric.NewScaled(1)
	packed := Config{Fabric: fab, Profile: ib.OpenMPI(), Places: mustPlace(transport.PackedPlacement(fab, 16, 4))}
	spread := Config{Fabric: fab, Profile: ib.OpenMPI(), Places: mustPlace(transport.BlockPlacement(fab, 16, 1))}
	rp, err := Run(packed, AlltoallPairwise, 256*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(spread, AlltoallPairwise, 256*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Time <= rs.Time {
		t.Errorf("packed %v !> spread %v", rp.Time, rs.Time)
	}
}

func TestNearCorePlacementFasterThanFar(t *testing.T) {
	fab := fabric.NewScaled(1)
	near := Config{Fabric: fab, Profile: ib.OpenMPI(), Places: mustPlace(transport.BlockPlacement(fab, 8, 1))}
	far := Config{Fabric: fab, Profile: ib.OpenMPI(), Places: mustPlace(transport.BlockPlacement(fab, 8, 0))}
	rn, err := Run(near, BcastBinomial, 1*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Run(far, BcastBinomial, 1*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if rn.Time >= rf.Time {
		t.Errorf("near-core bcast %v !< far-core %v (Fig. 8 asymmetry)", rn.Time, rf.Time)
	}
}

func TestUnknownOpAndBadConfig(t *testing.T) {
	if _, err := Run(testConfig(4), Op("nope"), 0); err == nil {
		t.Error("unknown op accepted")
	}
	cfg := testConfig(4)
	cfg.Root = 9
	if _, err := Run(cfg, BcastBinomial, 0); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, err := Run(Config{}, BcastBinomial, 0); err == nil {
		t.Error("empty placement accepted")
	}
}

// TestBadConfigErrors: every entry point rejects a config whose ranks
// fall outside the fabric or its cores, or that has no fabric at all,
// with an error instead of a panic inside a rank program.
func TestBadConfigErrors(t *testing.T) {
	cases := []struct {
		name, want string
		edit       func(*Config)
	}{
		{"node beyond fabric", "outside the 360-node fabric", func(c *Config) {
			c.Places[3].Node = fabric.FromGlobal(400)
		}},
		{"absurd CU", "outside the 360-node fabric", func(c *Config) {
			c.Places[1].Node = fabric.NodeID{CU: math.MaxInt / 90, Node: 0}
		}},
		{"negative node", "outside the 360-node fabric", func(c *Config) {
			c.Places[2].Node = fabric.NodeID{CU: 1, Node: -1}
		}},
		{"core 7", "core 7", func(c *Config) { c.Places[5].Core = 7 }},
		{"core -1", "core -1", func(c *Config) { c.Places[0].Core = -1 }},
		{"nil fabric", "nil fabric", func(c *Config) { c.Fabric = nil }},
		{"root", "root 360", func(c *Config) { c.Root = 360 }},
	}
	entries := []struct {
		name string
		run  func(Config) error
	}{
		{"Run", func(c Config) error { _, err := Run(c, AlltoallPairwise, 64*units.KB); return err }},
		{"RunMany", func(c Config) error {
			_, err := RunMany([]Request{{Cfg: c, Op: AlltoallPairwise, Size: 64 * units.KB}}, 1)
			return err
		}},
	}
	for _, tc := range cases {
		for _, e := range entries {
			cfg, err := CongestedConfig(360)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Places = append([]transport.Endpoint(nil), cfg.Places...)
			tc.edit(&cfg)
			err = e.run(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s via %s: error %v, want one mentioning %q", tc.name, e.name, err, tc.want)
			}
		}
	}
}

func TestBandwidthReporting(t *testing.T) {
	res, err := Run(testConfig(8), BcastBinomial, 1*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	bw := res.Bandwidth()
	if bw <= 0 || bw > ib.OpenMPI().NearBandwidth {
		t.Errorf("bcast effective bandwidth %v outside (0, near]", bw)
	}
}
