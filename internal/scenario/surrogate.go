package scenario

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"time"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/placement"
	"roadrunner/internal/surrogate"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// The surrogate-xval scenario cross-validates the analytic queueing
// surrogate against the DES it screens for, on every registered fabric
// topology: calibrate the surrogate's term weights on a dozen
// DES-replayed anchor placements, then rank a held-out placement set
// with both models and report the Spearman rank correlation. A
// screening tier only needs the ordering right — the absolute times
// stay the DES's job — so rank correlation is the figure of merit.
// The same scenario runs the two-tier search head-to-head against the
// pure-DES search at the same per-round DES budget.

// SurrogateXValSeed drives the anchor and holdout perturbations and the
// two-tier search; the scenario is deterministic end to end.
const SurrogateXValSeed = 20080616

// surrogateAnchorCount and surrogateHoldoutPerturbs shape the
// cross-validation set: anchors are the three baseline mappings plus
// seeded perturbations (the calibration budget a real search would
// spend), the holdout is the baselines plus a fresh, disjointly seeded
// set of perturbations at varied strengths.
const (
	surrogateAnchorCount     = 12
	surrogateHoldoutPerturbs = 18
)

// SurrogateXValPoint is one topology's cross-validation outcome.
type SurrogateXValPoint struct {
	Topology string
	Anchors  int
	Holdout  int
	// Spearman is the rank correlation between the DES's and the
	// calibrated surrogate's ordering of the holdout set.
	Spearman float64
	// Weights are the calibrated term weights (surrogate.FeatureNames
	// order).
	Weights []float64
	// BestAgrees reports that the surrogate puts the DES's best holdout
	// placement in its top three — the decision a screening tier must
	// not miss.
	BestAgrees bool
}

// SurrogateTwoTier is the head-to-head search outcome on the default
// topology: the two-tier (surrogate-screened) optimizer against the
// pure-DES optimizer, same seed, same round shape, same per-round DES
// budget.
type SurrogateTwoTier struct {
	Start        string
	StartTime    units.Time
	PureBest     units.Time
	TwoTierBest  units.Time
	ScreenFactor int
	Anchors      int
	// The DES replays each search spent (unique mappings; the two-tier
	// search pays a one-time calibration budget on top of its rounds)
	// and the candidates the surrogate priced to earn its shortlists.
	PureDESEvals          int
	TwoTierDESEvals       int
	TwoTierSurrogateEvals int
	TwoTierDedupHits      int
	// Deterministic reports that a serial two-tier run returned a
	// byte-identical result (wall-clock stripped) to the parallel one.
	Deterministic bool
}

// SurrogateXValReport is the whole scenario.
type SurrogateXValReport struct {
	TraceName string
	Ranks     int
	Sends     int
	Objective string
	Points    []SurrogateXValPoint
	TwoTier   SurrogateTwoTier
}

// surrogatePerturb applies seeded capacity-preserving rank swaps — the
// optimizer's own move — to a copy of base.
func surrogatePerturb(base []transport.Endpoint, seed int64, swaps int) []transport.Endpoint {
	rng := rand.New(rand.NewSource(seed))
	out := append([]transport.Endpoint(nil), base...)
	for i := 0; i < swaps; i++ {
		a, b := rng.Intn(len(out)), rng.Intn(len(out))
		out[a], out[b] = out[b], out[a]
	}
	return out
}

// surrogateXValConfig is the objective both models price: the captured
// schedule's communication on the congested wormhole fabric, compute
// stripped — the placement optimizer's own objective, where placement
// and congestion effects show undamped. (With compute included the
// holdout set collapses toward ties: Sweep3D's compute dominates the
// makespan and placement moves it by fractions of a percent, so rank
// correlation measures tie-noise instead of screening power.)
func surrogateXValConfig(fab *fabric.System) trace.ReplayConfig {
	return trace.ReplayConfig{
		Fabric: fab, Profile: ib.OpenMPI(), Policy: transport.Congested(), SkipCompute: true,
	}
}

// SurrogateXVal captures the canonical Sweep3D trace and
// cross-validates the surrogate on every registered topology.
func SurrogateXVal() (*SurrogateXValReport, error) {
	tr, _, err := CaptureSweep3DTrace()
	if err != nil {
		return nil, err
	}
	return SurrogateXValTrace(tr)
}

// SurrogateXValTrace runs the cross-validation over an already captured
// (or loaded) trace. Like topo-compare, it ignores the -topology knob:
// the sweep always covers every registered fabric.
func SurrogateXValTrace(tr *trace.Trace) (*SurrogateXValReport, error) {
	s := tr.Stats()
	rep := &SurrogateXValReport{
		TraceName: tr.Meta.Name,
		Ranks:     tr.Meta.Ranks,
		Sends:     s.Sends,
		Objective: "communication-only makespan, congested wormhole fabric",
	}
	for _, name := range fabric.Topologies() {
		fab, err := fabric.NewTopology(name)
		if err != nil {
			return nil, fmt.Errorf("scenario surrogate-xval: %w", err)
		}
		pt, err := surrogateXValOn(tr, fab)
		if err != nil {
			return nil, fmt.Errorf("scenario surrogate-xval: %s: %w", name, err)
		}
		rep.Points = append(rep.Points, *pt)
	}
	tt, err := surrogateTwoTier(tr)
	if err != nil {
		return nil, err
	}
	rep.TwoTier = *tt
	return rep, nil
}

// surrogateXValOn calibrates and cross-validates on one fabric.
func surrogateXValOn(tr *trace.Trace, fab *fabric.System) (*SurrogateXValPoint, error) {
	bases := make([][]transport.Endpoint, 0, len(TraceReplayPlacementNames))
	for _, name := range TraceReplayPlacementNames {
		places, err := TraceReplayPlaces(name, fab, tr.Meta.Ranks)
		if err != nil {
			return nil, err
		}
		bases = append(bases, places)
	}

	// Anchors: the baselines plus seeded perturbations round-robin over
	// them. The holdout reuses the baselines but draws its perturbations
	// from a disjoint seed range at varied strengths, so no perturbed
	// anchor reappears.
	anchors := append([][]transport.Endpoint(nil), bases...)
	for s := int64(1); len(anchors) < surrogateAnchorCount; s++ {
		anchors = append(anchors, surrogatePerturb(bases[s%3], SurrogateXValSeed+s, 4))
	}
	holdout := append([][]transport.Endpoint(nil), bases...)
	for s := int64(0); s < surrogateHoldoutPerturbs; s++ {
		holdout = append(holdout, surrogatePerturb(bases[s%3], SurrogateXValSeed+1000+s, 2+int(s%7)))
	}

	cfg := surrogateXValConfig(fab)
	pool, err := trace.NewEvaluatorPool(tr, cfg, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	all := append(append([][]transport.Endpoint(nil), anchors...), holdout...)
	res, err := pool.EvaluateMany(all, 0)
	if err != nil {
		return nil, err
	}
	atimes := make([]units.Time, len(anchors))
	for i := range anchors {
		atimes[i] = res[i].Time
	}
	dtimes := make([]units.Time, len(holdout))
	for i := range holdout {
		dtimes[i] = res[len(anchors)+i].Time
	}

	m, err := surrogate.NewReplay(tr, cfg)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	if err := m.Calibrate(anchors, atimes); err != nil {
		return nil, err
	}
	stimes := make([]units.Time, len(holdout))
	for i, h := range holdout {
		stimes[i] = m.Price(h)
	}

	desBest, surBestRank := 0, 0
	for i := range holdout {
		if dtimes[i] < dtimes[desBest] {
			desBest = i
		}
	}
	for i := range holdout {
		if stimes[i] < stimes[desBest] {
			surBestRank++
		}
	}
	return &SurrogateXValPoint{
		Topology:   fab.TopologyName(),
		Anchors:    len(anchors),
		Holdout:    len(holdout),
		Spearman:   surrogate.Spearman(dtimes, stimes),
		Weights:    m.Weights(),
		BestAgrees: surBestRank < 3,
	}, nil
}

// surrogateTwoTierBudget is the head-to-head search shape — the
// place-optimize budget, so the comparison mirrors the experiment the
// optimizer already runs.
var surrogateTwoTierBudget = placement.Config{
	GreedyRounds: 4,
	GreedyBatch:  16,
	AnnealRounds: 4,
	AnnealBatch:  16,
	ScreenFactor: 4,
}

// surrogateTwoTier runs the pure-DES and the surrogate-screened search
// over the comm-only schedule on the default fabric and compares the
// DES-confirmed winners. Both searches propose from the same seed; the
// two-tier run replays the same number of candidates per round, so at
// matched DES throughput its rounds cost the same wall-clock, plus the
// one-time anchor calibration.
func surrogateTwoTier(tr *trace.Trace) (*SurrogateTwoTier, error) {
	fab, err := fabric.NewTopology(fabric.DefaultTopology)
	if err != nil {
		return nil, err
	}
	starts, err := placement.Baselines(fab, tr.Meta.Ranks, transport.DefaultStride, transport.DefaultPerNode)
	if err != nil {
		return nil, err
	}
	cfg := surrogateTwoTierBudget
	cfg.Trace = tr
	cfg.Replay = trace.ReplayConfig{
		Fabric:      fab,
		Profile:     ib.OpenMPI(),
		Policy:      transport.Congested(),
		SkipCompute: true,
	}
	cfg.Starts = starts
	// The place-optimize experiment's seed, so the pure-DES leg is the
	// search that experiment already runs.
	cfg.Seed = PlaceOptimizeSeed

	pure, err := placement.Optimize(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario surrogate-xval: pure search: %w", err)
	}
	cfg.Surrogate = true
	two, err := placement.Optimize(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario surrogate-xval: two-tier search: %w", err)
	}
	serialCfg := cfg
	serialCfg.Workers = 1
	serial, err := placement.Optimize(serialCfg)
	if err != nil {
		return nil, fmt.Errorf("scenario surrogate-xval: serial two-tier search: %w", err)
	}
	two.Trajectory = two.Trajectory.WallFree()
	serial.Trajectory = serial.Trajectory.WallFree()
	return &SurrogateTwoTier{
		Start:                 two.Start,
		StartTime:             two.StartTime,
		PureBest:              pure.BestTime,
		TwoTierBest:           two.BestTime,
		ScreenFactor:          cfg.ScreenFactor,
		Anchors:               12,
		PureDESEvals:          pure.Trajectory.DESEvals,
		TwoTierDESEvals:       two.Trajectory.DESEvals,
		TwoTierSurrogateEvals: two.Trajectory.SurrogateEvals,
		TwoTierDedupHits:      two.Trajectory.DedupHits,
		Deterministic:         reflect.DeepEqual(two, serial),
	}, nil
}

// SurrogateSpeed is the measured per-evaluation cost of both tiers on
// the canonical trace and default fabric. The numbers are wall-clock —
// legitimately machine- and load-dependent — so they are measured on
// demand and never enter archived artifacts; the experiment asserts
// only the floor.
type SurrogateSpeed struct {
	// DESPerEval and SurrogatePerEval are the medians of the rounds.
	DESPerEval       time.Duration
	SurrogatePerEval time.Duration
	Speedup          float64 // DESPerEval / SurrogatePerEval
	// The per-eval cost each round measured, in round order.
	DESRounds, SurrogateRounds []time.Duration
}

// SurrogateSpeedFloor is the screening speedup the surrogate-xval
// experiment asserts: the surrogate must price candidates at least
// this many times faster than the pooled DES replays them. The
// measured ratio on an unloaded machine is well above the floor (see
// docs/surrogate.md and the Surrogate* benches); the floor keeps the
// check robust on loaded CI runners.
const SurrogateSpeedFloor = 3.0

// speedRounds is how many rounds MeasureSurrogateSpeed times. On a
// shared host one reading of each tier puts the ratio anywhere from
// below the floor to twice it; a load spike during one round moves the
// medians little.
const speedRounds = 9

// MeasureSurrogateSpeed times both tiers on the same congested
// placement after a warm-up evaluation each. Each round times 10 DES
// replays and 100 prices, alternating one replay with ten prices, so
// load on the host slows both tiers of a round alike; the speedup is
// the ratio of the two tiers' medians over the rounds.
func MeasureSurrogateSpeed(tr *trace.Trace) (*SurrogateSpeed, error) {
	fab, err := fabric.NewTopology(fabric.DefaultTopology)
	if err != nil {
		return nil, err
	}
	cfg := surrogateXValConfig(fab)
	places, err := TraceReplayPlaces("strided", fab, tr.Meta.Ranks)
	if err != nil {
		return nil, err
	}
	ev, err := trace.NewEvaluator(tr, cfg)
	if err != nil {
		return nil, err
	}
	defer ev.Close()
	m, err := surrogate.NewReplay(tr, cfg)
	if err != nil {
		return nil, err
	}
	defer m.Close()

	if _, err := ev.Evaluate(places); err != nil {
		return nil, err
	}
	m.Price(places)

	const desReps, pricesPerReplay = 10, 10
	sp := &SurrogateSpeed{}
	for r := 0; r < speedRounds; r++ {
		var des, sur time.Duration
		for i := 0; i < desReps; i++ {
			begin := time.Now()
			if _, err := ev.Evaluate(places); err != nil {
				return nil, err
			}
			des += time.Since(begin)
			begin = time.Now()
			for j := 0; j < pricesPerReplay; j++ {
				m.Price(places)
			}
			sur += time.Since(begin)
		}
		sp.DESRounds = append(sp.DESRounds, des/desReps)
		sp.SurrogateRounds = append(sp.SurrogateRounds, sur/(desReps*pricesPerReplay))
	}
	sp.DESPerEval = medianDuration(sp.DESRounds)
	sp.SurrogatePerEval = medianDuration(sp.SurrogateRounds)
	if sp.SurrogatePerEval > 0 {
		sp.Speedup = float64(sp.DESPerEval) / float64(sp.SurrogatePerEval)
	}
	return sp, nil
}

// medianDuration returns the median of an odd-length sample.
func medianDuration(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}
