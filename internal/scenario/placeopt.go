package scenario

import (
	"fmt"
	"reflect"

	"roadrunner/internal/ib"
	"roadrunner/internal/placement"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// The place-optimize scenario turns PR 4's placement observation into a
// search: the captured Sweep3D iteration's communication-only schedule
// (compute records stripped, congested wormhole fabric) is the
// objective — the configuration where placement effects show undamped,
// and where hop counts famously mispredict (packed has the fewest hops
// and the slowest schedule) — and the optimizer anneals rank→node
// mappings against it, seeded with the block/strided/packed baselines.
// The batch evaluator makes the search affordable: hundreds of replays
// at a few milliseconds each instead of one-shot replays at ~5x the
// cost.

// PlaceOptimizeSeed fixes the optimizer's random stream; the scenario
// is deterministic end to end.
const PlaceOptimizeSeed = 42

// placeOptimizeBudget is the scenario's search shape: modest enough for
// the orchestrator suite (including the race-instrumented run), big
// enough that both phases do real work.
var placeOptimizeBudget = placement.Config{
	GreedyRounds: 4,
	GreedyBatch:  16,
	AnnealRounds: 4,
	AnnealBatch:  16,
}

// PlaceOptimizeReport is the scenario's outcome.
type PlaceOptimizeReport struct {
	TraceName string
	Ranks     int
	Sends     int
	Objective string
	// Baselines are the seed mappings' objective values (comm-only
	// congested makespans), with their mean send hop counts.
	Baselines    []placement.BaselinePoint
	BaselineHops map[string]float64
	// Start is the baseline the search grew from; Best the winner.
	Start       string
	StartTime   units.Time
	BestTime    units.Time
	Improvement float64
	WinnerHops  float64
	Evaluations int
	Rounds      []placement.RoundStat
	// Deterministic reports that a serial (Workers: 1) run returned a
	// byte-identical result to the parallel run the report carries.
	Deterministic bool
	// The winner replayed once more with full observers under the
	// objective configuration: Reevaluated pins that the pooled search
	// and a fresh observed replay agree exactly, and the census shows
	// what the winning mapping does to the fabric.
	Reevaluated  units.Time
	WinnerCensus *transport.Census
	WinnerWire   units.Size
	// Winner is the optimized rank→node mapping itself.
	Winner []transport.Endpoint
}

// PlaceOptimize captures the canonical Sweep3D trace and searches
// placements for its communication schedule.
func PlaceOptimize() (*PlaceOptimizeReport, error) {
	tr, _, err := CaptureSweep3DTrace()
	if err != nil {
		return nil, err
	}
	return PlaceOptimizeTrace(tr)
}

// PlaceOptimizeTrace runs the placement search over an already captured
// (or loaded) trace.
func PlaceOptimizeTrace(tr *trace.Trace) (*PlaceOptimizeReport, error) {
	fab := newFabric()
	starts, err := placement.Baselines(fab, tr.Meta.Ranks, transport.DefaultStride, transport.DefaultPerNode)
	if err != nil {
		return nil, err
	}
	cfg := placeOptimizeBudget
	cfg.Trace = tr
	cfg.Replay = trace.ReplayConfig{
		Fabric:      fab,
		Profile:     ib.OpenMPI(),
		Policy:      transport.Congested(),
		SkipCompute: true,
	}
	cfg.Starts = starts
	cfg.Seed = PlaceOptimizeSeed

	res, err := placement.Optimize(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario place-optimize: %w", err)
	}
	// The same search serially: the determinism contract the optimizer
	// documents, checked on the real workload inside the suite.
	serialCfg := cfg
	serialCfg.Workers = 1
	serial, err := placement.Optimize(serialCfg)
	if err != nil {
		return nil, fmt.Errorf("scenario place-optimize: serial run: %w", err)
	}
	// Wall-clock is the one legitimately nondeterministic part of a
	// result; strip it before the byte-identity comparison.
	res.Trajectory = res.Trajectory.WallFree()
	serial.Trajectory = serial.Trajectory.WallFree()

	s := tr.Stats()
	rep := &PlaceOptimizeReport{
		TraceName:     tr.Meta.Name,
		Ranks:         tr.Meta.Ranks,
		Sends:         s.Sends,
		Objective:     "communication-only makespan, congested wormhole fabric",
		Baselines:     res.Baselines,
		BaselineHops:  make(map[string]float64, len(starts)),
		Start:         res.Start,
		StartTime:     res.StartTime,
		BestTime:      res.BestTime,
		Improvement:   res.Improvement,
		WinnerHops:    meanSendHops(tr, fab, res.Best),
		Evaluations:   res.Evaluations,
		Rounds:        res.Rounds,
		Deterministic: reflect.DeepEqual(res, serial),
		Winner:        res.Best,
	}
	for _, st := range starts {
		rep.BaselineHops[st.Name] = meanSendHops(tr, fab, st.Places)
	}

	// Replay the winner once more with the observers on: the pooled
	// search's makespan must reproduce exactly, and the census shows
	// where the winning mapping leaves the fabric.
	obs := cfg.Replay
	obs.Places = res.Best
	obs.Observe = trace.ObserveCensus
	final, err := trace.Replay(tr, obs)
	if err != nil {
		return nil, fmt.Errorf("scenario place-optimize: winner replay: %w", err)
	}
	rep.Reevaluated = final.Time
	rep.WinnerCensus = final.Congestion
	rep.WinnerWire = final.WireBytes
	return rep, nil
}
