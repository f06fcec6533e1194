package trace

import (
	"fmt"

	"roadrunner/internal/sim"
	"roadrunner/internal/transport"
)

// ReplayMany replays the trace under every placement as domains of a
// zero-lookahead sim.Cluster: each placement's replay is an independent
// simulation on its own domain engine, run to completion on whichever
// of the workers claims it. Results come back in placement order and
// are byte-identical to a serial loop of fresh Replay calls at any
// worker count; alongside them come the cluster's per-domain counters
// (events executed, windows, cross-domain traffic — zero by
// construction here) and per-worker busy/idle wall clock, the
// observability surface rrsim's -des stats print exposes. workers < 1
// means one per placement.
func ReplayMany(t *Trace, cfg ReplayConfig, placements [][]transport.Endpoint,
	workers int) ([]*ReplayResult, []sim.DomainStats, []sim.WorkerStats, error) {
	if len(placements) == 0 {
		return nil, nil, nil, fmt.Errorf("trace: replay: no placements")
	}
	if workers < 1 {
		workers = len(placements)
	}
	cl := sim.NewCluster(len(placements), 0)
	defer cl.Close()
	evs := make([]*Evaluator, len(placements))
	for i, places := range placements {
		ev, err := newEvaluator(cl.Domain(i), t, cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		evs[i] = ev
		if err := ev.start(places); err != nil {
			return nil, nil, nil, err
		}
	}
	if err := cl.Run(workers); err != nil {
		return nil, nil, nil, fmt.Errorf("trace: replay %s: %w", t.Meta.Name, err)
	}
	out := make([]*ReplayResult, len(placements))
	for i, ev := range evs {
		r, err := ev.finish()
		if err != nil {
			return nil, nil, nil, err
		}
		out[i] = r
	}
	return out, cl.Stats(), cl.WorkerStats(), nil
}
