package placement

import (
	"reflect"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// pipelineTrace builds a placement-sensitive schedule: rounds of a
// rank-chain pipeline (each rank receives from its predecessor and
// forwards to its successor), with payloads big enough that routes and
// HCA sharing matter.
func pipelineTrace(t *testing.T, ranks, rounds int, size units.Size) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder("pipeline", "test", ranks)
	for round := 0; round < rounds; round++ {
		for r := 0; r < ranks; r++ {
			if r > 0 {
				rec.Recv(r, r-1, round, size, 0)
			}
			if r < ranks-1 {
				rec.Send(r, r+1, round, size, 0)
			}
		}
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// spread places rank i on global node i*step, core 1.
func spread(ranks, step int) []transport.Endpoint {
	out := make([]transport.Endpoint, ranks)
	for i := range out {
		out[i] = transport.Endpoint{Node: fabric.FromGlobal(i * step), Core: 1}
	}
	return out
}

func testConfig(t *testing.T, tr *trace.Trace, starts []Start) Config {
	t.Helper()
	return Config{
		Trace: tr,
		Replay: trace.ReplayConfig{
			Fabric:  fabric.New(),
			Profile: ib.OpenMPI(),
			Policy:  transport.Congested(),
		},
		Starts:       starts,
		Seed:         7,
		GreedyRounds: 3,
		GreedyBatch:  8,
		AnnealRounds: 3,
		AnnealBatch:  8,
	}
}

// TestOptimizeSerialMatchesParallel pins the determinism contract: the
// worker count changes wall clock only — a serial run and a saturated
// parallel run return byte-identical results once the trajectory's
// wall-clock fields (the one legitimately nondeterministic part of a
// Result) are stripped with WallFree.
func TestOptimizeSerialMatchesParallel(t *testing.T) {
	tr := pipelineTrace(t, 8, 3, 256*units.KB)
	starts := []Start{
		{Name: "block", Places: spread(8, 1)},
		{Name: "strided", Places: spread(8, 180)},
	}
	for _, surrogate := range []bool{false, true} {
		cfg := testConfig(t, tr, starts)
		cfg.Surrogate = surrogate
		cfg.Workers = 1
		serial, err := Optimize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 8
		parallel, err := Optimize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial.Trajectory = serial.Trajectory.WallFree()
		parallel.Trajectory = parallel.Trajectory.WallFree()
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("surrogate=%v: serial and parallel optimizer runs diverged:\n serial   %+v\n parallel %+v",
				surrogate, serial, parallel)
		}
	}
}

// TestOptimizeNoWorseThanStarts: the search grows from the best start,
// so the winner can never lose to any baseline.
func TestOptimizeNoWorseThanStarts(t *testing.T) {
	tr := pipelineTrace(t, 8, 3, 64*units.KB)
	starts := []Start{
		{Name: "block", Places: spread(8, 1)},
		{Name: "strided", Places: spread(8, 180)},
	}
	res, err := Optimize(testConfig(t, tr, starts))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Baselines) != 2 {
		t.Fatalf("baselines %+v", res.Baselines)
	}
	for _, b := range res.Baselines {
		if res.BestTime > b.Time {
			t.Errorf("best %v worse than baseline %s %v", res.BestTime, b.Name, b.Time)
		}
	}
	if res.Improvement < 1 {
		t.Errorf("improvement %.3f < 1", res.Improvement)
	}
	if res.Evaluations < len(starts) {
		t.Errorf("evaluations %d", res.Evaluations)
	}
	if len(res.Best) != tr.Meta.Ranks {
		t.Fatalf("best mapping covers %d of %d ranks", len(res.Best), tr.Meta.Ranks)
	}
	// The reported best must reproduce: re-evaluating the winner yields
	// BestTime exactly.
	ev, err := trace.NewEvaluator(tr, trace.ReplayConfig{
		Fabric: fabric.New(), Profile: ib.OpenMPI(), Policy: transport.Congested(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	r, err := ev.Evaluate(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if r.Time != res.BestTime {
		t.Errorf("winner re-evaluates to %v, result says %v", r.Time, res.BestTime)
	}
}

// TestOptimizeEscapesBadStart: a two-rank schedule whose only start
// strands the chatty pair across the machine (7-hop routes, rendezvous
// round trips at full fabric latency). Relocation moves must find a
// strictly better mapping.
func TestOptimizeEscapesBadStart(t *testing.T) {
	tr := pipelineTrace(t, 2, 24, 256*units.KB)
	bad := []transport.Endpoint{
		{Node: fabric.FromGlobal(0), Core: 1},
		{Node: fabric.FromGlobal(2700), Core: 1}, // cross-side CU, different crossbar
	}
	cfg := testConfig(t, tr, []Start{{Name: "stranded", Places: bad}})
	cfg.AnnealRounds = 4
	res, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestTime >= res.StartTime {
		t.Errorf("optimizer failed to improve the stranded pair: best %v vs start %v",
			res.BestTime, res.StartTime)
	}
	// The winner must have pulled the pair closer together.
	far := cfg.Replay.Fabric.Hops(bad[0].Node, bad[1].Node)
	near := cfg.Replay.Fabric.Hops(res.Best[0].Node, res.Best[1].Node)
	if near >= far {
		t.Errorf("winner still %d hops apart (start %d)", near, far)
	}
}

// TestOptimizeRespectsNodeCapacity: starting from a packed mapping
// (every node full), a relocation-heavy search must never visit — or
// return — a mapping with more than four ranks on a node or two ranks
// on one core. Stacking ranks on one node would otherwise be the
// degenerate optimum, since intra-node sends cost software overhead
// only.
func TestOptimizeRespectsNodeCapacity(t *testing.T) {
	tr := pipelineTrace(t, 8, 2, 32*units.KB)
	packed := make([]transport.Endpoint, 8)
	for i := range packed {
		packed[i] = transport.Endpoint{Node: fabric.FromGlobal(i / 4), Core: i % 4}
	}
	cfg := testConfig(t, tr, []Start{{Name: "packed", Places: packed}})
	cfg.GreedyRounds = 1
	cfg.AnnealRounds = 6
	cfg.AnnealBatch = 16
	// A tiny pool forces relocation pressure onto full nodes.
	cfg.Pool = []fabric.NodeID{fabric.FromGlobal(0), fabric.FromGlobal(1), fabric.FromGlobal(2), fabric.FromGlobal(3)}
	res, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perNode := map[fabric.NodeID]map[int]bool{}
	for rank, ep := range res.Best {
		cores := perNode[ep.Node]
		if cores == nil {
			cores = map[int]bool{}
			perNode[ep.Node] = cores
		}
		if cores[ep.Core] {
			t.Errorf("rank %d shares node %v core %d", rank, ep.Node, ep.Core)
		}
		cores[ep.Core] = true
		if len(cores) > 4 {
			t.Errorf("node %v hosts %d ranks", ep.Node, len(cores))
		}
	}
}

// TestDedupeCollapsesIdenticalMappings pins the batch fingerprint:
// identical mappings share one unique slot, distinct ones (even
// differing only in a core) do not, and the backrefs realign results.
func TestDedupeCollapsesIdenticalMappings(t *testing.T) {
	a := spread(4, 1)
	b := spread(4, 2)
	aCopy := append([]transport.Endpoint(nil), a...)
	aCore := append([]transport.Endpoint(nil), a...)
	aCore[2].Core = 3
	uniq, ref, dups := dedupe([][]transport.Endpoint{a, b, aCopy, aCore, b})
	if len(uniq) != 3 || dups != 2 {
		t.Fatalf("got %d unique, %d dups; want 3, 2", len(uniq), dups)
	}
	if want := []int{0, 1, 0, 2, 1}; !reflect.DeepEqual(ref, want) {
		t.Errorf("backrefs %v, want %v", ref, want)
	}
}

// TestOptimizeCountsUniqueEvaluations is the dedup regression test: on
// a two-rank trace every greedy swap proposes the same single mapping,
// so a greedy round costs one DES replay no matter the batch size —
// Evaluations counts unique replays, not proposals.
func TestOptimizeCountsUniqueEvaluations(t *testing.T) {
	tr := pipelineTrace(t, 2, 2, 64*units.KB)
	cfg := testConfig(t, tr, []Start{{Name: "block", Places: spread(2, 1)}})
	cfg.GreedyRounds = 3
	cfg.GreedyBatch = 8
	cfg.GreedyPatience = 3
	cfg.AnnealRounds = 3
	cfg.AnnealBatch = 8
	res, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	proposals := 1 + 3*8 + 3*8 // start + greedy + anneal, without dedup
	if res.Evaluations >= proposals {
		t.Errorf("evaluations %d did not collapse duplicate proposals (%d proposed)",
			res.Evaluations, proposals)
	}
	if res.Trajectory.DedupHits == 0 {
		t.Error("no dedup hits on a two-rank search whose swaps all collide")
	}
	if res.Trajectory.DESEvals != res.Evaluations {
		t.Errorf("trajectory DES evals %d != result evaluations %d",
			res.Trajectory.DESEvals, res.Evaluations)
	}
	// Greedy rounds propose only the one possible swap of two ranks:
	// one unique replay per round at most.
	for _, r := range res.Rounds {
		if r.Phase == "greedy" && r.Round == 0 && r.Evaluations > 1+1 {
			t.Errorf("first greedy round spent %d evaluations on 1 unique swap", r.Evaluations-1)
		}
	}
}

// TestOptimizeSurrogateScreening exercises the two-tier path: the
// surrogate prices a ScreenFactor-wider pool, the DES replays only the
// shortlist, every reported number stays DES-confirmed, and the
// trajectory accounts both tiers.
func TestOptimizeSurrogateScreening(t *testing.T) {
	tr := pipelineTrace(t, 8, 3, 256*units.KB)
	starts := []Start{
		{Name: "block", Places: spread(8, 1)},
		{Name: "strided", Places: spread(8, 180)},
	}
	cfg := testConfig(t, tr, starts)
	cfg.Surrogate = true
	cfg.ScreenFactor = 4
	res, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestTime > res.StartTime {
		t.Errorf("two-tier best %v worse than start %v", res.BestTime, res.StartTime)
	}
	if res.Trajectory.SurrogateEvals == 0 {
		t.Fatal("surrogate tier armed but never priced a candidate")
	}
	if res.Trajectory.SurrogateEvals <= res.Trajectory.DESEvals {
		t.Errorf("surrogate priced %d candidates, DES replayed %d — screening should price the wider pool",
			res.Trajectory.SurrogateEvals, res.Trajectory.DESEvals)
	}
	if res.Trajectory.SurrogateWall <= 0 || res.Trajectory.DESWall <= 0 {
		t.Errorf("trajectory wall clocks not recorded: %+v", res.Trajectory)
	}
	if free := res.Trajectory.WallFree(); free.DESWall != 0 || free.SurrogateWall != 0 ||
		free.DESEvals != res.Trajectory.DESEvals {
		t.Errorf("WallFree mangled the trajectory: %+v", free)
	}
	// DES-confirmed: the winner re-evaluates to BestTime exactly.
	ev, err := trace.NewEvaluator(tr, cfg.Replay)
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	r, err := ev.Evaluate(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if r.Time != res.BestTime {
		t.Errorf("winner re-evaluates to %v, result says %v", r.Time, res.BestTime)
	}
}

func TestOptimizeConfigErrors(t *testing.T) {
	tr := pipelineTrace(t, 2, 1, units.KB)
	fab := fabric.New()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil trace", Config{Replay: trace.ReplayConfig{Fabric: fab}}},
		{"nil fabric", Config{Trace: tr}},
		{"no starts", Config{Trace: tr, Replay: trace.ReplayConfig{Fabric: fab}}},
		{"short start", Config{Trace: tr, Replay: trace.ReplayConfig{Fabric: fab},
			Starts: []Start{{Name: "x", Places: spread(1, 1)}}}},
		{"negative batch", Config{Trace: tr, Replay: trace.ReplayConfig{Fabric: fab},
			Starts: []Start{{Name: "x", Places: spread(2, 1)}}, GreedyBatch: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Optimize(tc.cfg); err == nil {
				t.Fatal("bad config accepted")
			}
		})
	}
}

// TestBaselines: the three search starts come back named and ordered as
// transport.PlacementNames, each equal to its generator's mapping, and
// an input a generator rejects is an error.
func TestBaselines(t *testing.T) {
	fab := fabric.NewScaled(2)
	starts, err := Baselines(fab, 40, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	block, _ := transport.BlockPlacement(fab, 40, 1)
	strided, _ := transport.StridedPlacement(fab, 40, 7, 1)
	packed, _ := transport.PackedPlacement(fab, 40, 2)
	want := []Start{{"block", block}, {"strided", strided}, {"packed", packed}}
	if !reflect.DeepEqual(starts, want) {
		t.Errorf("baselines %v, want %v", starts, want)
	}
	for _, bad := range [][3]int{{361, 7, 2}, {40, 0, 2}, {40, 7, 5}} {
		if _, err := Baselines(fab, bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("ranks %d stride %d per-node %d accepted", bad[0], bad[1], bad[2])
		}
	}
}
