// Package placement searches rank→node mappings against replayed
// traces: the batch replay evaluator (trace.Evaluator) is the objective
// function, and the optimizer drives it with greedy pairwise-swap
// refinement followed by batched simulated annealing.
//
// PR 4's trace-replay sweep showed why this is a search problem and not
// a formula: hop counts mispredict placement cost on a real Sweep3D
// schedule (the packed mapping has the fewest hops and the slowest bare
// communication schedule — HCA sharing dominates), and wormhole link
// admission can even beat infinite capacity by keeping flows off a
// shared adapter. The only trustworthy objective is the replayed
// makespan itself, which the pooled evaluator prices at well under the
// cost of a one-shot replay.
//
// The search is deterministic and parallel at once: every candidate
// mapping is generated on the coordinator from a seeded generator
// (each annealing round proposes single moves of the round-start
// incumbent), replayed in batches on a trace.EvaluatorPool and priced
// on per-worker surrogate clones through batch.Run (replay results and
// prices are pure functions of the mapping, so worker scheduling
// cannot leak into the outcome; a panic in either tier comes back as
// an error), and Metropolis-accepted serially in candidate order
// against the continuously updated incumbent.
// A run with Workers: 1 returns byte-identical results to a run with
// Workers: N — pinned by TestOptimizeSerialMatchesParallel and by the
// place-optimize experiment inside the orchestrator's own
// serial-vs-parallel contract.
//
// Config.Surrogate arms a second tier: the analytic queueing surrogate
// (internal/surrogate), calibrated against a handful of DES-replayed
// anchors, prices a ScreenFactor-wider candidate pool each round and
// only the cheapest batch-sized shortlist reaches the DES. The round's
// DES budget — and so its wall-clock — matches the pure-DES search
// while the proposal pool widens; every number a Result reports is
// still a DES-replayed makespan. Duplicate mappings inside any batch
// are fingerprinted and priced once, in both tiers.
package placement

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"roadrunner/internal/batch"
	"roadrunner/internal/fabric"
	"roadrunner/internal/surrogate"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// Start is one named seed mapping; the optimizer begins from the best
// of the starts it is given (typically block/strided/packed).
type Start struct {
	Name   string
	Places []transport.Endpoint
}

// Baselines returns the block, strided and packed mappings of a
// ranks-wide trace on fab as search starts, in transport.PlacementNames
// order: block and strided on core 1, strided stride nodes apart and
// packed perNode ranks to a node.
func Baselines(fab *fabric.System, ranks, stride, perNode int) ([]Start, error) {
	starts := make([]Start, len(transport.PlacementNames))
	for i, name := range transport.PlacementNames {
		places, err := transport.NamedPlacement(name, fab, ranks, stride, perNode, 1)
		if err != nil {
			return nil, err
		}
		starts[i] = Start{Name: name, Places: places}
	}
	return starts, nil
}

// Config parameterizes one optimization run.
type Config struct {
	// Trace is the schedule being placed; Replay carries the fabric,
	// protocol profile, congestion policy and compute handling the
	// objective replays under. Replay.Places is ignored and the
	// observers are forced off in the search loop — the inner loop
	// pays only for the makespan.
	Trace  *trace.Trace
	Replay trace.ReplayConfig
	// Starts are the candidate seed mappings (at least one, each
	// covering every rank). The best of them seeds the search, so the
	// result can never be worse than the best start.
	Starts []Start
	// Seed drives every random choice; equal seeds give equal results.
	Seed int64
	// Workers sizes the evaluator pool (<= 0 means GOMAXPROCS). It has
	// no effect on the result, only on wall-clock.
	Workers int

	// GreedyRounds bounds the pairwise-swap refinement: each round
	// evaluates GreedyBatch random swaps of the incumbent and keeps the
	// best if it improves; GreedyPatience consecutive non-improving
	// rounds end the phase early. Zero values take defaults (6 rounds,
	// 24 swaps, patience 2).
	GreedyRounds   int
	GreedyBatch    int
	GreedyPatience int
	// AnnealRounds and AnnealBatch shape the annealing phase (defaults
	// 6 and 24): each round proposes AnnealBatch single moves (swap or
	// relocation) of the round-start state and Metropolis-accepts them
	// in candidate order — each acceptance updates the incumbent the
	// remaining candidates are judged against — at the round's
	// temperature.
	AnnealRounds int
	AnnealBatch  int
	// Pool is the relocation candidate set: a relocated rank lands only
	// on one of these nodes (swaps are unaffected). Empty means the
	// fabric's first max(4×ranks, 256) nodes by global index. The
	// facility simulator's placement-assisted allocator passes the node
	// set a job was actually granted, so a mapping never drifts onto
	// nodes the batch scheduler gave to someone else.
	//
	// Moves preserve node capacity: a relocation never leaves more
	// than four ranks (one per Opteron core) on a node, so every
	// mapping the search visits is physically placeable — provided the
	// start mappings are.
	Pool []fabric.NodeID

	// Surrogate turns on the two-tier search: each round generates
	// ScreenFactor times its batch of candidates, prices them all with
	// the analytic queueing surrogate (calibrated up front against
	// DES-replayed anchor mappings), and sends only the cheapest
	// batch-sized shortlist to the DES. The DES replays per round —
	// and with them the round wall-clock — match the pure-DES search;
	// the surrogate's microseconds buy a ScreenFactor-wider proposal
	// pool. Every reported time (baselines, round stats, BestTime)
	// stays a DES-replayed makespan: surrogate prices only choose who
	// gets replayed, never enter a Result.
	Surrogate bool
	// ScreenFactor is the surrogate tier's candidate overgeneration
	// ratio (default 4); Anchors the calibration budget — the starts
	// plus seeded perturbations of them, DES-replayed once before the
	// search (default 12, raised to the surrogate's feature count when
	// set lower). Both are ignored unless Surrogate is set.
	ScreenFactor int
	Anchors      int
}

// BaselinePoint is one start mapping's objective value.
type BaselinePoint struct {
	Name string
	Time units.Time
}

// RoundStat traces one optimizer round for reports.
type RoundStat struct {
	Phase       string // "greedy" or "anneal"
	Round       int
	Temp        units.Time // annealing temperature (0 in greedy rounds)
	Accepted    int        // moves accepted this round
	Current     units.Time // state the next round proposes from
	Best        units.Time // best-so-far after the round
	Evaluations int        // cumulative replay evaluations
}

// Trajectory splits a search's objective work by tier. The counters
// are deterministic (equal configs give equal counts, serial or
// parallel); the wall-clock totals are the only nondeterministic state
// in a Result, and WallFree strips them wherever results are compared
// or archived.
type Trajectory struct {
	// DESEvals counts unique candidate mappings replayed by the pooled
	// DES evaluator; SurrogateEvals counts unique mappings priced by
	// the analytic surrogate. Duplicates inside a batch are collapsed
	// before either tier runs — DedupHits counts the objective calls
	// that dedup skipped.
	DESEvals       int
	SurrogateEvals int
	DedupHits      int
	// DESWall and SurrogateWall accumulate the wall-clock each tier's
	// batch calls spent (all workers' throughput combined, so the
	// per-eval rates below are comparable across Workers settings only
	// in serial runs).
	DESWall       time.Duration
	SurrogateWall time.Duration
}

// DESRate and SurrogateRate return each tier's observed evaluations
// per second (0 before any timed call).
func (t Trajectory) DESRate() float64 {
	if t.DESWall <= 0 {
		return 0
	}
	return float64(t.DESEvals) / t.DESWall.Seconds()
}

func (t Trajectory) SurrogateRate() float64 {
	if t.SurrogateWall <= 0 {
		return 0
	}
	return float64(t.SurrogateEvals) / t.SurrogateWall.Seconds()
}

// Speedup is the surrogate's per-eval rate over the DES's (0 when
// either tier has no timed work).
func (t Trajectory) Speedup() float64 {
	d := t.DESRate()
	if d <= 0 {
		return 0
	}
	return t.SurrogateRate() / d
}

// WallFree returns a copy with the wall-clock fields zeroed: the
// deterministic view that serial≡parallel comparisons and archived
// artifacts use.
func (t Trajectory) WallFree() Trajectory {
	t.DESWall, t.SurrogateWall = 0, 0
	return t
}

// Result is one optimization run's outcome.
type Result struct {
	// Ranks and Baselines record the problem; Start names the seed
	// mapping the search grew from (the best baseline).
	Ranks     int
	Baselines []BaselinePoint
	Start     string
	StartTime units.Time
	// Best is the winning mapping and BestTime its replayed makespan;
	// Improvement is StartTime/BestTime (>= 1).
	Best        []transport.Endpoint
	BestTime    units.Time
	Improvement float64
	// Evaluations counts unique DES objective replays (batch
	// duplicates are priced once); Rounds traces the search;
	// Trajectory splits the objective work by tier.
	Evaluations int
	Rounds      []RoundStat
	Trajectory  Trajectory
}

// anchorSeedSalt derives the calibration generator's seed from the
// search seed, so anchor perturbations are reproducible but distinct
// from the proposal stream.
const anchorSeedSalt = 0x5ca1ab1e

// The annealing schedule: the initial temperature as a fraction of the
// seed mapping's makespan, and the per-round geometric decay.
const (
	initTempFrac = 0.005
	coolRate     = 0.6
)

// defaults fills zero config fields.
func (c *Config) defaults(ranks, fabricNodes int) Config {
	d := *c
	if d.Workers <= 0 {
		d.Workers = runtime.GOMAXPROCS(0)
	}
	if d.GreedyRounds == 0 {
		d.GreedyRounds = 6
	}
	if d.GreedyBatch == 0 {
		d.GreedyBatch = 24
	}
	if d.GreedyPatience == 0 {
		d.GreedyPatience = 2
	}
	if d.AnnealRounds == 0 {
		d.AnnealRounds = 6
	}
	if d.AnnealBatch == 0 {
		d.AnnealBatch = 24
	}
	if len(d.Pool) == 0 {
		n := min(max(4*ranks, 256), fabricNodes)
		d.Pool = make([]fabric.NodeID, n)
		for g := range d.Pool {
			d.Pool[g] = fabric.FromGlobal(g)
		}
	}
	if d.ScreenFactor == 0 {
		d.ScreenFactor = 4
	}
	if d.Anchors < surrogate.NumFeatures {
		d.Anchors = 12 // zero or too few to fit the model: the default
	}
	return d
}

// Optimize searches rank→node mappings for the trace and returns the
// best found. The result is a deterministic function of (trace, replay
// config, starts, seed, search shape) — Workers only changes wall
// clock.
func Optimize(cfg Config) (*Result, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("placement: nil trace")
	}
	if cfg.Replay.Fabric == nil {
		return nil, fmt.Errorf("placement: nil fabric")
	}
	if len(cfg.Starts) == 0 {
		return nil, fmt.Errorf("placement: no start mappings")
	}
	if cfg.GreedyRounds < 0 || cfg.GreedyBatch < 0 || cfg.GreedyPatience < 0 ||
		cfg.AnnealRounds < 0 || cfg.AnnealBatch < 0 ||
		cfg.ScreenFactor < 0 || cfg.Anchors < 0 {
		return nil, fmt.Errorf("placement: negative search parameter in %+v", cfg)
	}
	ranks := cfg.Trace.Meta.Ranks
	for _, s := range cfg.Starts {
		if len(s.Places) != ranks {
			return nil, fmt.Errorf("placement: start %q places %d of %d ranks",
				s.Name, len(s.Places), ranks)
		}
	}
	for _, n := range cfg.Pool {
		if g := n.GlobalID(); g < 0 || g >= cfg.Replay.Fabric.Nodes() {
			return nil, fmt.Errorf("placement: pool node %v outside the %d-node fabric",
				n, cfg.Replay.Fabric.Nodes())
		}
	}
	c := cfg.defaults(ranks, cfg.Replay.Fabric.Nodes())

	// The search loop reads only the makespan.
	rcfg := c.Replay
	rcfg.Places = nil
	rcfg.Observe = 0
	pool, err := trace.NewEvaluatorPool(c.Trace, rcfg, c.Workers)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	ev := &tiered{pool: pool, workers: c.Workers}
	defer ev.Close()

	res := &Result{Ranks: ranks}

	// Baselines: every start evaluated, best (ties to the first) seeds
	// the search.
	starts := make([][]transport.Endpoint, len(c.Starts))
	for i, s := range c.Starts {
		starts[i] = s.Places
	}
	times, err := ev.evalDES(starts)
	if err != nil {
		return nil, err
	}
	best := 0
	for i, s := range c.Starts {
		res.Baselines = append(res.Baselines, BaselinePoint{Name: s.Name, Time: times[i]})
		if times[i] < times[best] {
			best = i
		}
	}
	res.Start = c.Starts[best].Name
	res.StartTime = times[best]

	if c.Surrogate {
		// Calibration: anchor mappings are the starts plus
		// capacity-preserving perturbations of them, drawn from a
		// dedicated generator so the calibration budget never shifts
		// the search's random stream. The starts' replays above are
		// reused; only the perturbations cost extra DES time.
		model, err := surrogate.NewReplay(c.Trace, rcfg)
		if err != nil {
			return nil, err
		}
		arng := rand.New(rand.NewSource(c.Seed ^ anchorSeedSalt))
		anchors := append([][]transport.Endpoint(nil), starts...)
		for len(anchors) < c.Anchors {
			m := append([]transport.Endpoint(nil), starts[len(anchors)%len(starts)]...)
			for s := 0; s < 3; s++ {
				swapMove(arng, m)
			}
			anchors = append(anchors, m)
		}
		atimes := append([]units.Time(nil), times...)
		if len(anchors) > len(starts) {
			ptimes, err := ev.evalDES(anchors[len(starts):])
			if err != nil {
				model.Close()
				return nil, err
			}
			atimes = append(atimes, ptimes...)
		}
		if err := model.Calibrate(anchors, atimes); err != nil {
			model.Close()
			return nil, err
		}
		// Clones share the calibrated weights and the trace precompute;
		// each worker prices on its own buffers.
		ev.sur = append(ev.sur, model)
		for w := 1; w < c.Workers; w++ {
			ev.sur = append(ev.sur, model.Clone())
		}
	}

	cur := append([]transport.Endpoint(nil), c.Starts[best].Places...)
	curTime := times[best]
	bestPlaces := append([]transport.Endpoint(nil), cur...)
	bestTime := curTime
	rng := rand.New(rand.NewSource(c.Seed))

	// Phase 1: greedy pairwise-swap refinement. Each round proposes a
	// batch of random swaps of the incumbent, evaluates them in
	// parallel and keeps the best if it improves.
	dry := 0
	for round := 0; round < c.GreedyRounds && dry < c.GreedyPatience; round++ {
		cands := make([][]transport.Endpoint, c.GreedyBatch*ev.factor(c.ScreenFactor))
		for i := range cands {
			m := append([]transport.Endpoint(nil), cur...)
			swapMove(rng, m)
			cands[i] = m
		}
		cands, err := ev.screen(cands, c.GreedyBatch)
		if err != nil {
			return nil, err
		}
		times, err := ev.evalDES(cands)
		if err != nil {
			return nil, err
		}
		win := 0
		for i := 1; i < len(times); i++ {
			if times[i] < times[win] {
				win = i
			}
		}
		accepted := 0
		if times[win] < curTime {
			cur, curTime = cands[win], times[win]
			accepted = 1
			dry = 0
		} else {
			dry++
		}
		if curTime < bestTime {
			bestPlaces = append(bestPlaces[:0], cur...)
			bestTime = curTime
		}
		res.Rounds = append(res.Rounds, RoundStat{
			Phase: "greedy", Round: round, Accepted: accepted,
			Current: curTime, Best: bestTime, Evaluations: ev.traj.DESEvals,
		})
	}

	// Phase 2: batched simulated annealing. Proposals mix swaps and
	// relocations, all derived from the round-start incumbent;
	// acceptance is Metropolis in candidate order against the
	// continuously updated incumbent (accepted moves replace it but do
	// not re-seed the round's remaining proposals), so an occasional
	// uphill move can walk the search off the greedy phase's local
	// minimum.
	temp := units.Time(float64(res.StartTime) * initTempFrac)
	for round := 0; round < c.AnnealRounds && temp > 0; round++ {
		cands := make([][]transport.Endpoint, c.AnnealBatch*ev.factor(c.ScreenFactor))
		for i := range cands {
			m := append([]transport.Endpoint(nil), cur...)
			if rng.Intn(2) == 0 {
				swapMove(rng, m)
			} else {
				relocateMove(rng, m, c.Pool)
			}
			cands[i] = m
		}
		cands, err := ev.screen(cands, c.AnnealBatch)
		if err != nil {
			return nil, err
		}
		times, err := ev.evalDES(cands)
		if err != nil {
			return nil, err
		}
		accepted := 0
		for i, t := range times {
			d := float64(t - curTime)
			if d <= 0 || rng.Float64() < math.Exp(-d/float64(temp)) {
				cur, curTime = cands[i], t
				accepted++
				if curTime < bestTime {
					bestPlaces = append(bestPlaces[:0], cur...)
					bestTime = curTime
				}
			}
		}
		res.Rounds = append(res.Rounds, RoundStat{
			Phase: "anneal", Round: round, Temp: temp, Accepted: accepted,
			Current: curTime, Best: bestTime, Evaluations: ev.traj.DESEvals,
		})
		temp = units.Time(float64(temp) * coolRate)
	}

	res.Best = bestPlaces
	res.BestTime = bestTime
	res.Improvement = float64(res.StartTime) / float64(res.BestTime)
	res.Evaluations = ev.traj.DESEvals
	res.Trajectory = ev.traj
	return res, nil
}

// swapMove exchanges two distinct ranks' endpoints.
func swapMove(rng *rand.Rand, m []transport.Endpoint) {
	if len(m) < 2 {
		return
	}
	i := rng.Intn(len(m))
	j := rng.Intn(len(m) - 1)
	if j >= i {
		j++
	}
	m[i], m[j] = m[j], m[i]
}

// relocateMove sends one rank to a random node of the relocation pool,
// keeping its core when free and taking the node's first free core
// otherwise. Nodes already hosting four other ranks are infeasible (a
// node has four Opteron cores); after a few infeasible draws the move
// degenerates to a no-op, which just re-proposes the incumbent.
func relocateMove(rng *rand.Rand, m []transport.Endpoint, pool []fabric.NodeID) {
	i := rng.Intn(len(m))
	for try := 0; try < 8; try++ {
		node := pool[rng.Intn(len(pool))]
		var used [4]bool
		occupants := 0
		for j := range m {
			if j != i && m[j].Node == node {
				used[m[j].Core] = true
				occupants++
			}
		}
		if occupants >= 4 {
			continue
		}
		core := m[i].Core
		if used[core] {
			for c := range used {
				if !used[c] {
					core = c
					break
				}
			}
		}
		m[i] = transport.Endpoint{Node: node, Core: core}
		return
	}
}

// tiered fronts the DES pool — and, in two-tier runs, the surrogate
// worker clones — behind batch calls that collapse duplicate mappings
// and account the trajectory. All ordering decisions happen on the
// coordinator, so worker scheduling cannot leak into results.
type tiered struct {
	pool    *trace.EvaluatorPool
	workers int
	sur     []*surrogate.Model // one per worker; nil when the surrogate tier is off
	traj    Trajectory
}

// factor is the candidate overgeneration ratio: screenFactor with the
// surrogate tier armed, 1 without (pure-DES rounds generate exactly
// their batch).
func (e *tiered) factor(screenFactor int) int {
	if len(e.sur) == 0 {
		return 1
	}
	return screenFactor
}

// evalDES replays every candidate on the DES pool, deduping identical
// mappings first; times are index-aligned with cands.
func (e *tiered) evalDES(cands [][]transport.Endpoint) ([]units.Time, error) {
	uniq, ref, dups := dedupe(cands)
	begin := time.Now()
	res, err := e.pool.EvaluateMany(uniq, e.workers)
	e.traj.DESWall += time.Since(begin)
	if err != nil {
		return nil, fmt.Errorf("placement: candidate replay: %w", err)
	}
	e.traj.DESEvals += len(uniq)
	e.traj.DedupHits += dups
	times := make([]units.Time, len(cands))
	for i, u := range ref {
		times[i] = res[u].Time
	}
	return times, nil
}

// screen prices every candidate on the surrogate tier and keeps the
// `keep` cheapest by (price, generation order) — a total order, so the
// shortlist is deterministic — returned in generation order to
// preserve Metropolis semantics downstream. A no-op when the tier is
// off or the batch already fits.
func (e *tiered) screen(cands [][]transport.Endpoint, keep int) ([][]transport.Endpoint, error) {
	if len(e.sur) == 0 || keep >= len(cands) {
		return cands, nil
	}
	uniq, ref, dups := dedupe(cands)
	begin := time.Now()
	// Prices are pure functions of the mapping, so which clone prices
	// which candidate cannot affect them.
	up := make([]units.Time, len(uniq))
	i, err := batch.Run(len(uniq), len(e.sur), func(w, i int) error {
		up[i] = e.sur[w].Price(uniq[i])
		return nil
	})
	e.traj.SurrogateWall += time.Since(begin)
	if err != nil {
		return nil, fmt.Errorf("placement: surrogate price of candidate %d: %w", i, err)
	}
	e.traj.SurrogateEvals += len(uniq)
	e.traj.DedupHits += dups
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := up[ref[idx[a]]], up[ref[idx[b]]]
		if pa != pb {
			return pa < pb
		}
		return idx[a] < idx[b]
	})
	kept := append([]int(nil), idx[:keep]...)
	sort.Ints(kept)
	out := make([][]transport.Endpoint, keep)
	for i, j := range kept {
		out[i] = cands[j]
	}
	return out, nil
}

// Close releases the surrogate clones (the DES pool closes itself).
func (e *tiered) Close() {
	for _, m := range e.sur {
		m.Close()
	}
}

// fingerprint packs a mapping into a comparable key — global node id
// and core per rank — for batch-level dedup.
func fingerprint(m []transport.Endpoint) string {
	buf := make([]byte, 5*len(m))
	for i, ep := range m {
		binary.LittleEndian.PutUint32(buf[5*i:], uint32(ep.Node.GlobalID()))
		buf[5*i+4] = byte(ep.Core)
	}
	return string(buf)
}

// dedupe collapses identical mappings: uniq keeps the first occurrence
// of each distinct mapping in input order, ref maps every input index
// to its uniq index, dups counts the collapsed copies. Random swaps of
// a small incumbent collide often — two proposals that undo each other
// or hit the same pair replay identically, and replaying one of them
// twice is milliseconds of pure waste.
func dedupe(cands [][]transport.Endpoint) (uniq [][]transport.Endpoint, ref []int, dups int) {
	seen := make(map[string]int, len(cands))
	ref = make([]int, len(cands))
	for i, c := range cands {
		k := fingerprint(c)
		if j, ok := seen[k]; ok {
			ref[i] = j
			dups++
			continue
		}
		seen[k] = len(uniq)
		ref[i] = len(uniq)
		uniq = append(uniq, c)
	}
	return uniq, ref, dups
}
