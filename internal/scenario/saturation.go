package scenario

import (
	"fmt"

	"roadrunner/internal/collectives"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// The saturation sweep is the congestion counterpart of the PR 2 sweeps:
// the dense exchanges run twice per communicator size — once on the
// congested fabric (wormhole channels, concurrent flows on one cable
// serialize) and once on the infinite-capacity fabric of the legacy
// latency model — and the ratio locates where the reduced fat tree's 2:1
// taper saturates. Pairwise alltoall pushes every CU's 180 node flows
// over its 96 uplink cables and throttles hard once the communicator
// spans CUs; ring allgather moves the same bytes but only ever to a
// neighbor, so it rides the taper untouched — the contrast the
// Roadrunner designers engineered the reduced tree around.

// SaturationPoint is one (operation, communicator) measurement of the
// congestion sweep.
type SaturationPoint struct {
	Op    collectives.Op
	Nodes int
	Size  units.Size
	// Congested is the completion time on the wormhole fabric, Baseline
	// on the infinite-capacity fabric (the PR 2 model), and Slowdown
	// their ratio.
	Congested units.Time
	Baseline  units.Time
	Slowdown  float64
	// Queueing totals from the congested run's link census, with the
	// 2:1-tapered uplink tier broken out so taper pressure is
	// distinguishable from middle-stage switch contention.
	QueuedFlows  int64
	TotalWait    units.Time
	UplinkQueued int64
	UplinkWait   units.Time
	// Top holds the congested run's most contended links, hottest
	// first; TopUplinks the hottest uplink cables specifically.
	Top        []transport.LinkUsage
	TopUplinks []transport.LinkUsage
	// Messages and Events describe the congested run's cost.
	Messages int64
	Events   int64
}

// String renders the point on one line.
func (p SaturationPoint) String() string {
	return fmt.Sprintf("coll-saturation %s nodes=%d: congested %v vs %v (%.2fx, wait %v)",
		p.Op, p.Nodes, p.Congested, p.Baseline, p.Slowdown, p.TotalWait)
}

// SaturationNodeCounts are the communicator sizes of the congestion
// sweep: one crossbar, one CU, then CU multiples to the full machine.
var SaturationNodeCounts = []int{8, 64, 180, 360, 720, 3060}

// SaturationOps are the dense exchanges the sweep stresses the taper
// with.
var SaturationOps = []collectives.Op{
	collectives.AlltoallPairwise,
	collectives.AllgatherRing,
}

// SaturationSize is the per-block payload: one HCA chunk, large enough
// that streaming (and therefore cable occupancy) dominates the software
// overheads.
const SaturationSize = 64 * units.KB

// assemblePoint folds one point's base and congested Results into its
// SaturationPoint.
func assemblePoint(op collectives.Op, nodes int, base, cong *collectives.Result) SaturationPoint {
	p := SaturationPoint{
		Op:        op,
		Nodes:     nodes,
		Size:      SaturationSize,
		Congested: cong.Time,
		Baseline:  base.Time,
		Slowdown:  float64(cong.Time) / float64(base.Time),
		Messages:  cong.Messages,
		Events:    cong.EngineStats.Dispatched,
	}
	if c := cong.Congestion; c != nil {
		p.QueuedFlows = c.Queued
		p.TotalWait = c.TotalWait
		p.UplinkQueued = c.UplinkQueued
		p.UplinkWait = c.UplinkWait
		p.Top = c.Top
		p.TopUplinks = c.TopUplinks
	}
	return p
}

// Saturation runs the congestion sweep: every saturation op at every
// communicator size, congested vs infinite-capacity fabric. This is the
// most expensive sweep in the repository — the full-machine alltoall
// alone is ~9.4M messages per fabric — so callers that only need the
// shape of the curve should use SaturationSubset.
func Saturation() ([]SaturationPoint, error) {
	return saturationSweep(SaturationNodeCounts)
}

// SaturationSubset runs the sweep over the given communicator sizes
// only, in the given order.
func SaturationSubset(nodeCounts []int) ([]SaturationPoint, error) {
	return saturationSweep(nodeCounts)
}

// saturationSweep measures every (op, communicator) point on both
// fabrics. Each of the sweep's runs is an independent simulation, so
// RunMany spreads them over GOMAXPROCS workers — the full-machine
// congested alltoall overlaps the other 23 runs instead of following
// them — with results byte-identical at any worker count.
func saturationSweep(nodeCounts []int) ([]SaturationPoint, error) {
	var reqs []collectives.Request
	for _, op := range SaturationOps {
		for _, n := range nodeCounts {
			baseCfg, err := collectives.DefaultConfigOn(TopologyName(), n)
			if err != nil {
				return nil, fmt.Errorf("scenario coll-saturation: %w", err)
			}
			congCfg, err := collectives.CongestedConfigOn(TopologyName(), n)
			if err != nil {
				return nil, fmt.Errorf("scenario coll-saturation: %w", err)
			}
			reqs = append(reqs,
				collectives.Request{Cfg: baseCfg, Op: op, Size: SaturationSize},
				collectives.Request{Cfg: congCfg, Op: op, Size: SaturationSize})
		}
	}
	results, err := collectives.RunMany(reqs, 0)
	if err != nil {
		return nil, fmt.Errorf("scenario coll-saturation: %w", err)
	}
	var out []SaturationPoint
	i := 0
	for _, op := range SaturationOps {
		for _, n := range nodeCounts {
			out = append(out, assemblePoint(op, n, results[i], results[i+1]))
			i += 2
		}
	}
	return out, nil
}
