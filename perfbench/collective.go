package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"roadrunner/internal/collectives"
	"roadrunner/internal/fabric"
	"roadrunner/internal/units"
)

// collective-saturation: one congested pairwise alltoall per op on the
// default fat-tree. 360 nodes (two CUs) is the smallest slice whose
// traffic crosses the 2:1-tapered uplinks; each input places the ranks
// on a seeded random permutation of the slice, so a run averages over
// collCycle different queueing patterns.
const (
	collNodes = 360
	collSize  = 64 * units.KB
	collCycle = 16
	collOp    = collectives.AlltoallPairwise
)

// collPerm is op input i's rank→node permutation.
func collPerm(seed int64, i int) []int {
	return rand.New(rand.NewSource(mix(seed, i))).Perm(collNodes)
}

// collPerms are the run's inputs.
func collPerms(seed int64) [][]int {
	perms := make([][]int, collCycle)
	for i := range perms {
		perms[i] = collPerm(seed, i)
	}
	return perms
}

// collConfig is the congested communicator with rank r on node perm[r]
// (near core, as in the default block placement).
func collConfig(perm []int) (collectives.Config, error) {
	cfg, err := collectives.CongestedConfig(collNodes)
	if err != nil {
		return cfg, err
	}
	for r := range cfg.Places {
		cfg.Places[r].Node = fabric.FromGlobal(perm[r])
	}
	return cfg, nil
}

// collSig is the part of a collective Result a re-run must reproduce.
type collSig struct {
	events, messages, queued int64
	time, wait, uplinkWait   units.Time
}

func sigOf(r *collectives.Result) collSig {
	return collSig{r.EngineStats.Dispatched, r.Messages, r.Congestion.Queued,
		r.Time, r.Congestion.TotalWait, r.Congestion.UplinkWait}
}

// checkCollective checks one op's output outside its timed interval
// (collectives.Run already validated the payloads).
func checkCollective(r *collectives.Result) error {
	switch {
	case r.Ranks != collNodes || len(r.Data) != collNodes:
		return fmt.Errorf("alltoall over %d ranks returned %d ranks, %d payloads", collNodes, r.Ranks, len(r.Data))
	case r.Messages != collNodes*(collNodes-1):
		return fmt.Errorf("alltoall sent %d messages, want %d", r.Messages, collNodes*(collNodes-1))
	case r.Time <= 0 || r.Congestion == nil:
		return errors.New("alltoall returned no time or no census")
	}
	return nil
}

func runCollective(o options, tr *tracer) (*runResult, error) {
	res := &runResult{}
	var perms [][]int
	cfgs := make([]collectives.Config, collCycle)
	setup := func() error {
		perms = collPerms(o.seed)
		for i := range perms {
			cfg, err := collConfig(perms[i])
			if err != nil {
				return err
			}
			cfgs[i] = cfg
		}
		warm, err := collConfig(collPerm(o.seed, -1))
		if err != nil {
			return err
		}
		_, err = collectives.Run(warm, collOp, collSize)
		return err
	}
	var err error
	if res.setup, err = timedSetups(setupRuns, setup); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	res.digests = map[string]string{"placements": digest(perms)}

	first := make([]collSig, collCycle)
	var events int64 // dispatched by the ops that passed their check
	op := func(i int, tr *tracer) (any, error) {
		root := tr.begin(i, -1, "op")
		defer tr.end(root)
		sp := tr.begin(i, root, "collectives.Run")
		defer tr.end(sp)
		return collectives.Run(cfgs[i%collCycle], collOp, collSize)
	}
	check := func(i int, out any) error {
		r := out.(*collectives.Result)
		if err := checkCollective(r); err != nil {
			return err
		}
		s := sigOf(r)
		if i < collCycle {
			first[i] = s
		} else if s != first[i%collCycle] {
			return fmt.Errorf("input %d re-ran to %+v, first run gave %+v", i%collCycle, s, first[i%collCycle])
		}
		events += s.events
		return nil
	}
	tracedLat, plainLat := closedLoop(o.seconds, collCycle, tr, res, op, check)

	// Op 0's input once more, after everything else ran: the simulated
	// outcome must not depend on what the process did before.
	if r, err := collectives.Run(cfgs[0], collOp, collSize); err != nil {
		res.fail(fmt.Errorf("re-run of op 0: %w", err))
	} else if s := sigOf(r); s != first[0] {
		res.fail(fmt.Errorf("re-run of op 0 gave %+v, op 0 gave %+v", s, first[0]))
	}

	var c collSig
	for _, s := range first {
		c.events += s.events
		c.messages += s.messages
		c.queued += s.queued
		c.time += s.time
		c.wait += s.wait
		c.uplinkWait += s.uplinkWait
	}
	k := float64(collCycle)
	res.counters = map[string]float64{}
	res.counters["sim.events_per_op"] = float64(c.events) / k
	res.counters["transport.messages_per_op"] = float64(c.messages) / k
	res.counters["transport.queued_per_op"] = float64(c.queued) / k
	res.counters["transport.wait_sim_ms_per_op"] = simMs(c.wait) / k
	res.counters["transport.uplink_wait_share"] = share(float64(c.uplinkWait), float64(c.wait))
	res.counters["collectives.sim_time_us"] = float64(c.time) / float64(units.Microsecond) / k

	if tr == nil {
		return res, nil
	}
	res.layer = map[string]float64{}
	res.layer["sim.ns_per_event"] = share(float64(sum(res.latencies)), float64(events))
	res.layer["bench.tracing_overhead_pct"] = tracingOverhead(tracedLat, plainLat)

	pairs := make([][2]fabric.NodeID, 0, collNodes*(collNodes-1))
	for a := 0; a < collNodes; a++ {
		for b := 0; b < collNodes; b++ {
			if a != b {
				pairs = append(pairs, [2]fabric.NodeID{fabric.FromGlobal(perms[0][a]), fabric.FromGlobal(perms[0][b])})
			}
		}
	}
	// The trace rungs have no trace of this workload's own to run on:
	// they place the canonical trace on each input's first 64 nodes.
	canon, err := captureCanonical()
	if err != nil {
		return nil, err
	}
	places := make([][]endpoint, collCycle)
	for i, p := range perms {
		places[i] = nodesAsPlaces(p[:canon.tr.Meta.Ranks])
	}
	rungs, err := ladder(ladderInput{
		seed:   o.seed,
		fab:    cfgs[0].Fabric,
		pairs:  pairs,
		size:   collSize,
		canon:  canon,
		places: places,
		op: func() error {
			_, err := collectives.Run(cfgs[0], collOp, collSize)
			return err
		},
		opReps: 3,
	}, res)
	if err != nil {
		return nil, err
	}
	for k, v := range rungs {
		res.layer[k] = v
	}
	return res, nil
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// share is a/b, 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func simMs(t units.Time) float64 { return float64(t) / float64(units.Millisecond) }
