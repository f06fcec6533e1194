package trace

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// evalPlacements builds three structurally different placements over a
// one-CU fabric for an n-rank trace: one rank per node, stride-8 across
// line crossbars, and four ranks per node.
func evalPlacements(fab *fabric.System, ranks int) [][]transport.Endpoint {
	block := make([]transport.Endpoint, ranks)
	strided := make([]transport.Endpoint, ranks)
	packed := make([]transport.Endpoint, ranks)
	for i := 0; i < ranks; i++ {
		block[i] = transport.Endpoint{Node: fabric.FromGlobal(i), Core: 1}
		strided[i] = transport.Endpoint{Node: fabric.FromGlobal((i * 8) % fab.Nodes()), Core: 1}
		packed[i] = transport.Endpoint{Node: fabric.FromGlobal(i / 4), Core: i % 4}
	}
	return [][]transport.Endpoint{block, strided, packed}
}

// TestEvaluatorMatchesFreshReplay is the pooling contract: a sequence of
// Evaluate calls on one Evaluator produces results byte-identical to a
// fresh one-shot Replay per placement — same makespans, same per-send
// timings, same census, same engine stats — under both the congested
// policy and the zero Policy. Nothing of one evaluation may leak into
// the next.
func TestEvaluatorMatchesFreshReplay(t *testing.T) {
	fab := fabric.NewScaled(1)
	tr := meshTrace(t, 16, 96*units.KB)
	placements := evalPlacements(fab, 16)
	for _, pol := range []transport.Policy{transport.Congested(), {}} {
		cfg := ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Policy: pol, Observe: ObserveAll}
		ev, err := NewEvaluator(tr, cfg)
		if err != nil {
			t.Fatalf("evaluator: %v", err)
		}
		for i, places := range placements {
			got, err := ev.Evaluate(places)
			if err != nil {
				t.Fatalf("pooled evaluate %d: %v", i, err)
			}
			one := cfg
			one.Places = places
			want, err := Replay(tr, one)
			if err != nil {
				t.Fatalf("fresh replay %d: %v", i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("policy %+v placement %d: pooled result differs from fresh replay\n  pooled: %+v\n  fresh:  %+v",
					pol, i, got, want)
			}
		}
		// Revisit the first placement: earlier evaluations of other
		// placements (different link sets, different pair routes) must
		// not have contaminated the pooled state.
		got, err := ev.Evaluate(placements[0])
		if err != nil {
			t.Fatalf("revisit evaluate: %v", err)
		}
		one := cfg
		one.Places = placements[0]
		want, err := Replay(tr, one)
		if err != nil {
			t.Fatalf("revisit fresh replay: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("policy %+v: revisited placement diverged after pooled reuse", pol)
		}
		ev.Close()
	}
}

// TestEvaluatorMakespanOnly: with no observers the result still carries
// the makespan, rank finishes and transport counters — equal to the
// fully observed run — but no per-send timing and no census.
func TestEvaluatorMakespanOnly(t *testing.T) {
	fab := fabric.NewScaled(1)
	tr := meshTrace(t, 8, 64*units.KB)
	places := evalPlacements(fab, 8)[0]
	full, err := Replay(tr, ReplayConfig{
		Fabric: fab, Profile: ib.OpenMPI(), Places: places,
		Policy: transport.Congested(), Observe: ObserveAll,
	})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Replay(tr, ReplayConfig{
		Fabric: fab, Profile: ib.OpenMPI(), Places: places,
		Policy: transport.Congested(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Time != full.Time || !reflect.DeepEqual(bare.RankFinish, full.RankFinish) {
		t.Errorf("makespan-only timing diverged: %v vs %v", bare.Time, full.Time)
	}
	if bare.Messages != full.Messages || bare.WireBytes != full.WireBytes {
		t.Errorf("counters diverged: %d/%v vs %d/%v",
			bare.Messages, bare.WireBytes, full.Messages, full.WireBytes)
	}
	if bare.EngineStats != full.EngineStats {
		t.Errorf("engine stats diverged: %+v vs %+v", bare.EngineStats, full.EngineStats)
	}
	if bare.Sends != nil || bare.Congestion != nil {
		t.Errorf("unobserved replay populated observers: sends %d, census %v",
			len(bare.Sends), bare.Congestion)
	}
	if len(full.Sends) == 0 || full.Congestion == nil {
		t.Fatalf("observed replay missing observers")
	}
}

// TestEvaluatorRejectsBadPlacement: placement validation happens per
// Evaluate call, and a rejected placement leaves the evaluator usable.
func TestEvaluatorRejectsBadPlacement(t *testing.T) {
	fab := fabric.NewScaled(1)
	tr := meshTrace(t, 4, 8*units.KB)
	ev, err := NewEvaluator(tr, ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Policy: transport.Congested()})
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	good := evalPlacements(fab, 4)[0]
	if _, err := ev.Evaluate(good[:2]); err == nil {
		t.Error("short placement accepted")
	}
	bad := append([]transport.Endpoint(nil), good...)
	bad[1].Core = 9
	if _, err := ev.Evaluate(bad); err == nil {
		t.Error("bad core accepted")
	}
	bad[1] = transport.Endpoint{Node: fabric.NodeID{CU: 5, Node: 0}, Core: 1}
	if _, err := ev.Evaluate(bad); err == nil {
		t.Error("out-of-fabric node accepted")
	}
	if _, err := ev.Evaluate(good); err != nil {
		t.Errorf("evaluator unusable after rejected placements: %v", err)
	}
	ev.Close()
	if _, err := ev.Evaluate(good); err == nil {
		t.Error("closed evaluator accepted an evaluation")
	}
}

// settledGoroutines returns the goroutine count once it has stopped
// falling — a goroutine an earlier test started may still be exiting —
// polling for at most about a second.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// TestEvaluatorRunsNoGoroutines: the rank walkers are calendar events,
// not coroutine procs, so building an evaluator and running it leaves
// the goroutine count where it was.
func TestEvaluatorRunsNoGoroutines(t *testing.T) {
	fab := fabric.NewScaled(1)
	tr := meshTrace(t, 16, 32*units.KB)
	before := settledGoroutines()
	ev, err := NewEvaluator(tr, ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Policy: transport.Congested()})
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	if _, err := ev.Evaluate(evalPlacements(fab, 16)[1]); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines %d -> %d across NewEvaluator and Evaluate", before, after)
	}
}
