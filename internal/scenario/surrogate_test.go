package scenario

import (
	"sync"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/surrogate"
)

var surrogateXValOnce = sync.OnceValues(func() (*SurrogateXValReport, error) {
	return SurrogateXVal()
})

func TestSurrogateXValContract(t *testing.T) {
	rep, err := surrogateXValOnce()
	if err != nil {
		t.Fatalf("SurrogateXVal: %v", err)
	}
	if rep.Ranks != TraceReplayPx*TraceReplayPy || rep.Sends == 0 {
		t.Fatalf("trace shape %+v", rep)
	}
	topos := fabric.Topologies()
	if len(rep.Points) != len(topos) {
		t.Fatalf("%d points for %d registered topologies", len(rep.Points), len(topos))
	}
	for i, p := range rep.Points {
		if p.Topology != topos[i] {
			t.Errorf("point %d is %s, want %s", i, p.Topology, topos[i])
		}
		if p.Spearman < 0.9 {
			t.Errorf("%s: holdout Spearman %.4f < 0.9", p.Topology, p.Spearman)
		}
		if !p.BestAgrees {
			t.Errorf("%s: surrogate dropped the DES-best holdout placement from its top-3", p.Topology)
		}
		if p.Anchors < surrogate.NumFeatures || p.Holdout <= p.Anchors/2 {
			t.Errorf("%s: degenerate cross-validation set: %d anchors, %d holdout",
				p.Topology, p.Anchors, p.Holdout)
		}
		if len(p.Weights) != surrogate.NumFeatures {
			t.Errorf("%s: %d weights for %d features", p.Topology, len(p.Weights), surrogate.NumFeatures)
		}
	}
}

func TestSurrogateXValTwoTier(t *testing.T) {
	rep, err := surrogateXValOnce()
	if err != nil {
		t.Fatalf("SurrogateXVal: %v", err)
	}
	tt := rep.TwoTier
	if tt.TwoTierBest > tt.PureBest {
		t.Errorf("two-tier best %v worse than pure DES %v at matched round budget",
			tt.TwoTierBest, tt.PureBest)
	}
	if !tt.Deterministic {
		t.Error("serial and parallel two-tier runs diverged")
	}
	if tt.TwoTierSurrogateEvals <= tt.TwoTierDESEvals {
		t.Errorf("surrogate priced %d candidates, DES replayed %d: the screen did not widen the pool",
			tt.TwoTierSurrogateEvals, tt.TwoTierDESEvals)
	}
	if tt.TwoTierDESEvals > tt.PureDESEvals+tt.Anchors {
		t.Errorf("two-tier DES spend %d exceeds pure %d plus %d anchors",
			tt.TwoTierDESEvals, tt.PureDESEvals, tt.Anchors)
	}
}

// TestSurrogateSpeedFloor measures the per-eval cost of both tiers at
// run time; the floor keeps the assertion robust on loaded machines
// (the measured ratio is well above it — see the Surrogate* benches).
func TestSurrogateSpeedFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	tr, _, err := CaptureSweep3DTrace()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := MeasureSurrogateSpeed(tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("surrogate speedup %.2fx, median of per-round ratios (ratio of medians %.2fx: DES %v, surrogate %v)",
		sp.Speedup, float64(sp.DESPerEval)/float64(sp.SurrogatePerEval), sp.DESPerEval, sp.SurrogatePerEval)
	if sp.Speedup < SurrogateSpeedFloor {
		t.Errorf("surrogate speedup below the %.0fx floor; per-eval rounds: DES %v, surrogate %v",
			SurrogateSpeedFloor, sp.DESRounds, sp.SurrogateRounds)
	}
}
