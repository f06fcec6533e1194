package experiments

import (
	"fmt"

	"roadrunner/internal/scenario"
	"roadrunner/internal/surrogate"
)

// The surrogate-xval experiment cross-validates the analytic queueing
// surrogate — the microsecond placement-pricing model the two-tier
// search screens with — against the DES on every registered fabric
// topology: calibrate on a dozen DES-replayed anchors, then rank a
// held-out placement set with both models. Spearman rank correlation is
// the figure of merit (a screening tier needs the ordering, not the
// times), asserted >= 0.9 per topology. The same artifact runs the
// two-tier search head-to-head against the pure-DES search at the same
// per-round DES budget and checks the DES-confirmed winner is never
// worse, and that the surrogate prices candidates at least
// SurrogateSpeedFloor times faster than the DES replays them (the
// wall-clock measurement itself never enters the artifact: archived
// output must be byte-identical across machines and worker counts).
func init() {
	register("surrogate-xval", "Analytic surrogate cross-validation vs the DES", "§II.C / §V.A model",
		"Calibrates the analytic placement-pricing surrogate on DES anchors per topology, asserts holdout Spearman >= 0.9 and the screening speed floor, and races the two-tier search against pure DES",
		runSurrogateXVal)
}

func runSurrogateXVal() *Artifact {
	a := newArtifact("surrogate-xval", "Analytic surrogate cross-validation vs the DES", "§II.C / §V.A model")
	rep, err := scenario.SurrogateXVal()
	if err != nil {
		a.Checks.True("cross-validation runs", false, err.Error())
		return a
	}

	t := newTableHelper("Holdout rank correlation per topology (calibrated surrogate vs DES)",
		"topology", "anchors", "holdout", "Spearman", "DES-best in surrogate top-3")
	minRho, allAgree := 1.0, true
	for _, p := range rep.Points {
		t.AddRow(p.Topology, p.Anchors, p.Holdout, fmt.Sprintf("%.4f", p.Spearman),
			fmt.Sprintf("%v", p.BestAgrees))
		if p.Spearman < minRho {
			minRho = p.Spearman
		}
		allAgree = allAgree && p.BestAgrees
	}
	t.AddNote("objective: %s; anchors are the baselines plus seeded swaps from seed %d",
		rep.Objective, scenario.SurrogateXValSeed)
	a.Tables = append(a.Tables, t)

	tw := newTableHelper("Calibrated term weights", append([]string{"topology"}, surrogate.FeatureNames[:]...)...)
	for _, p := range rep.Points {
		row := make([]any, 0, 1+len(p.Weights))
		row = append(row, p.Topology)
		for _, w := range p.Weights {
			row = append(row, fmt.Sprintf("%.4g", w))
		}
		tw.AddRow(row...)
	}
	tw.AddNote("ridge fit toward the physical prior (schedule weight 1, corrections 0); a near-1 schedule weight means the walk itself carries the model")
	a.Tables = append(a.Tables, tw)

	tt := rep.TwoTier
	t2 := newTableHelper("Two-tier vs pure-DES search (same seed, same per-round DES budget)",
		"search", "DES-confirmed best", "DES replays", "surrogate prices")
	t2.AddRow("pure DES", tt.PureBest.String(), tt.PureDESEvals, 0)
	t2.AddRow(fmt.Sprintf("two-tier (screen %dx)", tt.ScreenFactor),
		tt.TwoTierBest.String(), tt.TwoTierDESEvals, tt.TwoTierSurrogateEvals)
	t2.AddNote("start %s at %v; the two-tier search pays a one-time %d-anchor calibration and %d duplicate candidates were priced once",
		tt.Start, tt.StartTime, tt.Anchors, tt.TwoTierDedupHits)
	a.Tables = append(a.Tables, t2)

	topoCount := len(rep.Points)
	a.Checks.True("every registered topology cross-validated", topoCount >= 4,
		fmt.Sprintf("%d topologies", topoCount))
	a.Checks.True("holdout Spearman >= 0.9 on every topology", minRho >= 0.9,
		fmt.Sprintf("minimum %.4f over %d topologies", minRho, topoCount))
	a.Checks.True("surrogate never loses the DES-best placement from its top-3", allAgree,
		"the decision a screening tier must not miss")
	a.Checks.True("two-tier winner equal-or-better than pure DES at matched round budget",
		tt.TwoTierBest <= tt.PureBest,
		fmt.Sprintf("two-tier %v vs pure %v", tt.TwoTierBest, tt.PureBest))
	a.Checks.True("two-tier DES spend bounded by pure spend plus calibration",
		tt.TwoTierDESEvals <= tt.PureDESEvals+tt.Anchors,
		fmt.Sprintf("%d vs %d + %d anchors", tt.TwoTierDESEvals, tt.PureDESEvals, tt.Anchors))
	a.Checks.True("two-tier search deterministic (serial byte-identical to parallel)",
		tt.Deterministic, "placement.Optimize with Workers 1 vs GOMAXPROCS, wall-clock stripped")
	a.Checks.True("surrogate screened a wider pool than the DES replayed",
		tt.TwoTierSurrogateEvals > tt.TwoTierDESEvals,
		fmt.Sprintf("%d priced vs %d replayed", tt.TwoTierSurrogateEvals, tt.TwoTierDESEvals))

	// The speed floor: measured at run time on this host, so it is a host
	// check, asserted as a boolean only — wall-clock numbers must never
	// enter the archived artifact.
	tr, _, err := scenario.CaptureSweep3DTrace()
	if err != nil {
		a.Checks.True("speed measurement runs", false, err.Error())
		return a
	}
	sp, err := scenario.MeasureSurrogateSpeed(tr)
	if err != nil {
		a.Checks.True("speed measurement runs", false, err.Error())
		return a
	}
	a.Host.True(
		fmt.Sprintf("surrogate prices >= %.0fx faster than the pooled DES evaluates", scenario.SurrogateSpeedFloor),
		sp.Speedup >= scenario.SurrogateSpeedFloor,
		"wall-clock measured at run time, not archived; see the Surrogate* benches and docs/surrogate.md for numbers")
	return a
}
