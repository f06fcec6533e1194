package main

import (
	"errors"
	"fmt"
	"time"

	"roadrunner/internal/placement"
	"roadrunner/internal/trace"
	"roadrunner/internal/units"
)

// placement-search: one two-tier placement.Optimize per op at the
// budget the place-optimize and surrogate-xval experiments use, on the
// canonical trace's comm-only congested objective. Op i searches with
// a seed derived from the workload seed and input i mod placeCycle.
const placeCycle = 8

// placeConfig is the search of one op.
func placeConfig(c *canonical, seed int64) placement.Config {
	return placement.Config{
		Trace:        c.tr,
		Replay:       c.cfg,
		Starts:       c.starts,
		Seed:         seed,
		Workers:      1,
		GreedyRounds: 4,
		GreedyBatch:  16,
		AnnealRounds: 4,
		AnnealBatch:  16,
		Surrogate:    true,
		ScreenFactor: 4,
		Anchors:      12,
	}
}

// placeSeeds are the run's search seeds.
func placeSeeds(seed int64) []int64 {
	seeds := make([]int64, placeCycle)
	for i := range seeds {
		seeds[i] = mix(seed, i)
	}
	return seeds
}

// placeSig is the part of a search result a re-run must reproduce.
type placeSig struct {
	start, best                  units.Time
	desEvals, surEvals, dedups   int
	replayEvents, replayMsgs     int64
	replayQueued                 int64
	replayWait, replayUplinkWait units.Time
}

// checkPlacement replays the winner with a fresh trace.Replay: it must
// reproduce BestTime exactly and be no worse than the best start. The
// replay's census gives the winner's transport counters.
func checkPlacement(c *canonical, r *placement.Result) (placeSig, error) {
	s := placeSig{start: r.StartTime, best: r.BestTime, desEvals: r.Trajectory.DESEvals,
		surEvals: r.Trajectory.SurrogateEvals, dedups: r.Trajectory.DedupHits}
	if len(r.Baselines) != len(c.starts) {
		return s, fmt.Errorf("%d baselines for %d starts", len(r.Baselines), len(c.starts))
	}
	bestStart := r.Baselines[0].Time
	for _, b := range r.Baselines {
		bestStart = min(bestStart, b.Time)
	}
	if r.StartTime != bestStart {
		return s, fmt.Errorf("search started from %v, best start is %v", r.StartTime, bestStart)
	}
	if r.BestTime > bestStart {
		return s, fmt.Errorf("winner %v is worse than the best start %v", r.BestTime, bestStart)
	}
	cfg := c.cfg
	cfg.Places = r.Best
	cfg.Observe = trace.ObserveCensus
	rep, err := trace.Replay(c.tr, cfg)
	if err != nil {
		return s, fmt.Errorf("fresh replay of the winner: %w", err)
	}
	if rep.Time != r.BestTime {
		return s, fmt.Errorf("winner replays to %v, search reported %v", rep.Time, r.BestTime)
	}
	if rep.Congestion == nil {
		return s, errors.New("fresh replay of the winner returned no census")
	}
	s.replayEvents, s.replayMsgs = rep.EngineStats.Dispatched, rep.Messages
	s.replayQueued, s.replayWait, s.replayUplinkWait = rep.Congestion.Queued, rep.Congestion.TotalWait, rep.Congestion.UplinkWait
	return s, nil
}

func runPlacement(o options, tr *tracer) (*runResult, error) {
	res := &runResult{}
	var c *canonical
	setup := func() error {
		var err error
		if c, err = captureCanonical(); err != nil {
			return err
		}
		_, err = placement.Optimize(placeConfig(c, mix(o.seed, -1)))
		return err
	}
	var err error
	if res.setup, err = timedSetups(setupRuns, setup); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	seeds := placeSeeds(o.seed)
	res.digests = map[string]string{"trace": digest(c.jsonl), "placements": digest(c.starts), "search_seeds": digest(seeds)}

	first := make([]placeSig, placeCycle)
	winners := make([][]endpoint, placeCycle)
	var desWall, surWall time.Duration
	var events int64
	op := func(i int, tr *tracer) (any, error) {
		root := tr.begin(i, -1, "op")
		defer tr.end(root)
		t0 := time.Now()
		r, err := placement.Optimize(placeConfig(c, seeds[i%placeCycle]))
		if err == nil && tr != nil {
			// The tiers' wall totals, reported by the search, as children
			// of the Optimize span.
			sp := tr.add(i, root, "placement.Optimize", t0, time.Now(), false)
			d := t0.Add(r.Trajectory.DESWall)
			tr.add(i, sp, "trace.Evaluate", t0, d, true)
			tr.add(i, sp, "surrogate.Price", d, d.Add(r.Trajectory.SurrogateWall), true)
		}
		return r, err
	}
	check := func(i int, out any) error {
		r := out.(*placement.Result)
		s, err := checkPlacement(c, r)
		if err != nil {
			return err
		}
		k := i % placeCycle
		if i < placeCycle {
			first[k], winners[k] = s, r.Best
		} else if s != first[k] {
			return fmt.Errorf("search %d re-ran to %+v, first run gave %+v", k, s, first[k])
		}
		desWall += r.Trajectory.DESWall
		surWall += r.Trajectory.SurrogateWall
		events += int64(s.desEvals) * s.replayEvents
		return nil
	}
	tracedLat, plainLat := closedLoop(o.seconds, placeCycle, tr, res, op, check)

	var des, sur, dedup, improved, evs, msgs, queued int64
	var gain float64
	var wait, uplink units.Time
	for _, s := range first {
		des += int64(s.desEvals)
		sur += int64(s.surEvals)
		dedup += int64(s.dedups)
		if s.best < s.start {
			improved++
		}
		gain += 100 * float64(s.start-s.best) / float64(s.start)
		evs += int64(s.desEvals) * s.replayEvents
		msgs += s.replayMsgs
		queued += s.replayQueued
		wait += s.replayWait
		uplink += s.replayUplinkWait
	}
	k := float64(placeCycle)
	res.counters = map[string]float64{}
	res.counters["placement.des_evals_per_op"] = float64(des) / k
	res.counters["placement.surrogate_evals_per_op"] = float64(sur) / k
	res.counters["placement.dedup_hits_per_op"] = float64(dedup) / k
	res.counters["placement.improved_share"] = float64(improved) / k
	res.counters["placement.makespan_gain_pct"] = gain / k
	// The search returns no engine counters: its events are estimated
	// as its DES replays times the events of its winner's replay.
	res.counters["sim.events_per_op"] = float64(evs) / k
	res.counters["transport.messages_per_op"] = float64(msgs) / k
	res.counters["transport.queued_per_op"] = float64(queued) / k
	res.counters["transport.wait_sim_ms_per_op"] = simMs(wait) / k
	res.counters["transport.uplink_wait_share"] = share(float64(uplink), float64(wait))

	if tr == nil {
		return res, nil
	}
	res.layer = map[string]float64{}
	busy := float64(sum(res.latencies))
	res.layer["placement.des_share"] = share(float64(desWall), busy)
	res.layer["placement.surrogate_share"] = share(float64(surWall), busy)
	res.layer["sim.ns_per_event"] = share(float64(desWall), float64(events))
	res.layer["bench.tracing_overhead_pct"] = tracingOverhead(tracedLat, plainLat)
	rungs, err := ladder(ladderInput{
		seed:   o.seed,
		fab:    c.cfg.Fabric,
		pairs:  sendPairs(c.tr, winners),
		size:   sendSize(c.tr),
		canon:  c,
		places: winners,
		op: func() error {
			_, err := placement.Optimize(placeConfig(c, seeds[0]))
			return err
		},
		opReps: 2,
	}, res)
	if err != nil {
		return nil, err
	}
	for k, v := range rungs {
		res.layer[k] = v
	}
	return res, nil
}
