package collectives

import (
	"fmt"
	"reflect"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// TestUnqueuedCongestedRunMatchesUncongested is the transport invariant
// at the collective level: an admission that does not queue adds no
// calendar event, so a congested run whose census reports nothing
// queued reproduces the zero-Policy run exactly — same completion and
// minimum times, traffic, engine counters and payloads — for every
// algorithm, across placements that mix intra-node, intra-CU and
// cross-CU traffic. Runs that queued are skipped; at least a quarter of
// all runs must still cross links, so the comparison is not vacuous.
func TestUnqueuedCongestedRunMatchesUncongested(t *testing.T) {
	fab := fabric.NewScaled(3)
	placements := map[string][]transport.Endpoint{
		"block":   mustPlace(transport.BlockPlacement(fab, 48, 1)),
		"strided": mustPlace(transport.StridedPlacement(fab, 40, 23, 0)),
		"packed":  mustPlace(transport.PackedPlacement(fab, 96, 4)),
	}
	for _, n := range []int{2, 8, 13, 64} {
		placements[fmt.Sprintf("block%d", n)] = mustPlace(transport.BlockPlacement(fab, n, 1))
	}
	runs, unqueued := 0, 0
	for name, places := range placements {
		for _, op := range Ops() {
			for _, size := range []units.Size{0, 8, 4 * units.KB, 64 * units.KB, units.MB} {
				uncongested := Config{Fabric: fab, Profile: ib.OpenMPI(), Places: places}
				congested := uncongested
				congested.Congestion = transport.Congested()
				a, err := Run(uncongested, op, size)
				if err != nil {
					t.Fatalf("%s %s %v zero Policy: %v", name, op, size, err)
				}
				b, err := Run(congested, op, size)
				if err != nil {
					t.Fatalf("%s %s %v congested: %v", name, op, size, err)
				}
				if a.Congestion != nil {
					t.Errorf("%s %s %v: zero-Policy run produced a census", name, op, size)
				}
				runs++
				if b.Congestion == nil {
					t.Fatalf("%s %s %v: congested run produced no census", name, op, size)
				}
				if b.Congestion.Queued != 0 {
					continue
				}
				if b.Congestion.Links > 0 {
					unqueued++
				}
				if a.Time != b.Time || a.MinTime != b.MinTime {
					t.Errorf("%s %s %v: times diverged: %v/%v vs %v/%v",
						name, op, size, a.Time, a.MinTime, b.Time, b.MinTime)
				}
				if a.Messages != b.Messages || a.WireBytes != b.WireBytes {
					t.Errorf("%s %s %v: traffic diverged: %d/%v vs %d/%v",
						name, op, size, a.Messages, a.WireBytes, b.Messages, b.WireBytes)
				}
				if a.EngineStats != b.EngineStats {
					t.Errorf("%s %s %v: engine stats diverged: %+v vs %+v",
						name, op, size, a.EngineStats, b.EngineStats)
				}
				if !reflect.DeepEqual(a.Data, b.Data) {
					t.Errorf("%s %s %v: payloads diverged", name, op, size)
				}
			}
		}
	}
	if unqueued < runs/4 {
		t.Errorf("only %d of %d congested runs crossed links without queueing", unqueued, runs)
	}
}

// TestCongestedAlltoallThrottledByTaper checks the headline mechanism: a
// cross-CU alltoall is measurably slower on the congested fabric, while
// the same exchange inside one crossbar (no shared cables between
// distinct node pairs beyond the crossbar itself) stays at the legacy
// timing, and validation still passes either way.
func TestCongestedAlltoallThrottledByTaper(t *testing.T) {
	const size = 64 * units.KB
	run := func(nodes int, congested bool) *Result {
		cfg, err := DefaultConfig(nodes)
		if err != nil {
			t.Fatal(err)
		}
		if congested {
			cfg.Congestion = transport.Congested()
		}
		res, err := Run(cfg, AlltoallPairwise, size)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Two CUs: every round after the first 180 pushes a full CU's flows
	// across 96 uplink cables.
	base, cong := run(360, false), run(360, true)
	slowdown := float64(cong.Time) / float64(base.Time)
	if slowdown <= 1.05 {
		t.Errorf("cross-CU alltoall slowdown = %.3f, want > 1.05 (taper must throttle)", slowdown)
	}
	if cong.Congestion == nil || cong.Congestion.TotalWait <= 0 {
		t.Fatalf("congested run reports no queueing: %+v", cong.Congestion)
	}
	hot := cong.Congestion.Top[0]
	if hot.Link.Kind != fabric.LinkUplink {
		t.Errorf("hottest link %v, want an uplink cable", hot.Link)
	}
	// A single crossbar has no tapered tier in play.
	base8, cong8 := run(8, false), run(8, true)
	if r := float64(cong8.Time) / float64(base8.Time); r < 0.999 || r > 1.01 {
		t.Errorf("single-crossbar alltoall slowdown = %.4f, want ~1", r)
	}
}

// TestCongestedRunsDeterministic pins byte-identical reruns under the
// wormhole policy, queueing included.
func TestCongestedRunsDeterministic(t *testing.T) {
	cfg, err := CongestedConfig(360)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(cfg, AlltoallPairwise, 32*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, AlltoallPairwise, 32*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.Messages != b.Messages ||
		a.EngineStats.Dispatched != b.EngineStats.Dispatched {
		t.Fatalf("congested rerun diverged: %v/%d/%d vs %v/%d/%d",
			a.Time, a.Messages, a.EngineStats.Dispatched,
			b.Time, b.Messages, b.EngineStats.Dispatched)
	}
	ca, cb := a.Congestion, b.Congestion
	if ca.TotalWait != cb.TotalWait || ca.Queued != cb.Queued || ca.Links != cb.Links {
		t.Fatalf("census diverged: %+v vs %+v", ca, cb)
	}
	for i := range ca.Top {
		if ca.Top[i] != cb.Top[i] {
			t.Errorf("top link %d diverged: %v vs %v", i, ca.Top[i], cb.Top[i])
		}
	}
}
