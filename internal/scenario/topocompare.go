package scenario

import (
	"fmt"
	"runtime"

	"roadrunner/internal/collectives"
	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// The topo-compare sweep answers the cross-fabric question the 2008-era
// papers argued over: which interconnect wins for which communication
// pattern, at which taper. The saturation collectives (pairwise
// alltoall, ring allgather) and the captured Sweep3D iteration replay
// run on every registered topology — the paper's 2:1-tapered fat-tree,
// the same tree with ECMP-style hash spreading, a full-bisection (1:1)
// tree, and a 3D torus — congested vs infinite capacity, with the
// per-topology congestion census alongside. The sweep always runs all
// fabrics side by side regardless of the -topology knob; its fat-tree
// column doubles as a pin that the topology interface reproduces the
// legacy fabric exactly.

// TopoCompareNodes is the communicator size of the collective leg: two
// CUs, the smallest scale where the inter-CU tier (and the torus's CU
// boundary) carries every pattern.
const TopoCompareNodes = 360

// TopoCompareSize is the per-block payload (the saturation sweep's).
const TopoCompareSize = SaturationSize

// TopoCompareOps are the patterns compared: the taper-hostile dense
// exchange and the taper-immune neighbor exchange.
var TopoCompareOps = []collectives.Op{
	collectives.AlltoallPairwise,
	collectives.AllgatherRing,
}

// TopoComparePlacementNames are the replay leg's rank→node mappings.
var TopoComparePlacementNames = []string{"block", "strided"}

// TopoCompareCollectivePoint is one (topology, op) measurement.
type TopoCompareCollectivePoint struct {
	Topology string
	Op       collectives.Op
	Nodes    int
	Size     units.Size
	// Congested is the completion time on the wormhole fabric, Baseline
	// on the infinite-capacity fabric, Slowdown their ratio.
	Congested units.Time
	Baseline  units.Time
	Slowdown  float64
	// The congested run's census totals (uplink tier nonzero only on
	// the tree family) and hottest links.
	QueuedFlows  int64
	TotalWait    units.Time
	UplinkQueued int64
	UplinkWait   units.Time
	Top          []transport.LinkUsage
	Messages     int64
	Events       int64
}

// String renders the point on one line.
func (p TopoCompareCollectivePoint) String() string {
	return fmt.Sprintf("topo-compare %s %s nodes=%d: congested %v vs %v (%.2fx, wait %v)",
		p.Topology, p.Op, p.Nodes, p.Congested, p.Baseline, p.Slowdown, p.TotalWait)
}

// TopoCompareReplayPoint is one (topology, placement) replay of the
// captured Sweep3D iteration.
type TopoCompareReplayPoint struct {
	Topology  string
	Placement string
	// MeanHops is the placement's average routed hop count per send on
	// this topology.
	MeanHops  float64
	Congested units.Time
	Baseline  units.Time
	Slowdown  float64
	// Census totals of the congested replay.
	QueuedFlows int64
	TotalWait   units.Time
	Top         []transport.LinkUsage
	Messages    int64
	WireBytes   units.Size
	Events      int64
}

// String renders the point on one line.
func (p TopoCompareReplayPoint) String() string {
	return fmt.Sprintf("topo-compare %s replay/%s: congested %v vs %v (%.3fx, %.2f hops/msg)",
		p.Topology, p.Placement, p.Congested, p.Baseline, p.Slowdown, p.MeanHops)
}

// TopoCompareReport is the whole cross-fabric sweep.
type TopoCompareReport struct {
	Topologies  []string
	Collectives []TopoCompareCollectivePoint
	// Replays holds the Sweep3D replay points; the captured trace is
	// shared across topologies (same schedule, different wiring).
	Replays    []TopoCompareReplayPoint
	TraceRanks int
	TraceSends int
}

// TopoCompare runs the collective and replay legs on every registered
// topology. Every run is an independent simulation, spread over
// GOMAXPROCS workers with results byte-identical at any worker count.
func TopoCompare() (*TopoCompareReport, error) {
	rep := &TopoCompareReport{Topologies: fabric.Topologies()}

	// Collective leg: (topology x op) congested + baseline requests,
	// batched through RunMany as the saturation sweep is.
	var reqs []collectives.Request
	for _, topo := range rep.Topologies {
		for _, op := range TopoCompareOps {
			baseCfg, err := collectives.DefaultConfigOn(topo, TopoCompareNodes)
			if err != nil {
				return nil, fmt.Errorf("scenario topo-compare: %w", err)
			}
			congCfg, err := collectives.CongestedConfigOn(topo, TopoCompareNodes)
			if err != nil {
				return nil, fmt.Errorf("scenario topo-compare: %w", err)
			}
			reqs = append(reqs,
				collectives.Request{Cfg: baseCfg, Op: op, Size: TopoCompareSize},
				collectives.Request{Cfg: congCfg, Op: op, Size: TopoCompareSize})
		}
	}
	results, err := collectives.RunMany(reqs, 0)
	if err != nil {
		return nil, fmt.Errorf("scenario topo-compare: %w", err)
	}
	i := 0
	for _, topo := range rep.Topologies {
		for _, op := range TopoCompareOps {
			base, cong := results[i], results[i+1]
			i += 2
			p := TopoCompareCollectivePoint{
				Topology:  topo,
				Op:        op,
				Nodes:     TopoCompareNodes,
				Size:      TopoCompareSize,
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
			}
			rep.Collectives = append(rep.Collectives, p)
		}
	}

	// Replay leg: one captured Sweep3D iteration, replayed per topology
	// under block and strided placements, congested vs baseline. One
	// evaluator pool per (topology, policy), in turn; each spreads its
	// placements over GOMAXPROCS workers.
	tr, _, err := CaptureSweep3DTrace()
	if err != nil {
		return nil, err
	}
	s := tr.Stats()
	rep.TraceRanks = tr.Meta.Ranks
	rep.TraceSends = s.Sends
	type leg struct {
		topo string
		pol  transport.Policy
	}
	var legs []leg
	for _, topo := range rep.Topologies {
		legs = append(legs,
			leg{topo, transport.Policy{}},
			leg{topo, transport.Congested()})
	}
	fabs := make(map[string]*fabric.System, len(rep.Topologies))
	placements := make(map[string][][]transport.Endpoint, len(rep.Topologies))
	for _, topo := range rep.Topologies {
		fab, err := fabric.NewTopology(topo)
		if err != nil {
			return nil, fmt.Errorf("scenario topo-compare: %w", err)
		}
		fabs[topo] = fab
		for _, name := range TopoComparePlacementNames {
			places, err := TraceReplayPlaces(name, fab, tr.Meta.Ranks)
			if err != nil {
				return nil, err
			}
			placements[topo] = append(placements[topo], places)
		}
	}
	run := func(l leg) ([]*trace.ReplayResult, error) {
		pool, err := trace.NewEvaluatorPool(tr, trace.ReplayConfig{
			Fabric:  fabs[l.topo],
			Profile: ib.OpenMPI(),
			Policy:  l.pol,
			Observe: trace.ObserveCensus,
		}, runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, fmt.Errorf("scenario topo-compare: %s: %w", l.topo, err)
		}
		defer pool.Close()
		out, err := pool.EvaluateMany(placements[l.topo], 0)
		if err != nil {
			return nil, fmt.Errorf("scenario topo-compare: %s: %w", l.topo, err)
		}
		return out, nil
	}
	legResults := make([][]*trace.ReplayResult, len(legs))
	for i, l := range legs {
		if legResults[i], err = run(l); err != nil {
			return nil, err
		}
	}
	for li, topo := range rep.Topologies {
		base, cong := legResults[2*li], legResults[2*li+1]
		for pi, name := range TopoComparePlacementNames {
			p := TopoCompareReplayPoint{
				Topology:  topo,
				Placement: name,
				MeanHops:  meanSendHops(tr, fabs[topo], placements[topo][pi]),
				Congested: cong[pi].Time,
				Baseline:  base[pi].Time,
				Slowdown:  float64(cong[pi].Time) / float64(base[pi].Time),
				Messages:  cong[pi].Messages,
				WireBytes: cong[pi].WireBytes,
				Events:    cong[pi].EngineStats.Dispatched,
			}
			if c := cong[pi].Congestion; c != nil {
				p.QueuedFlows = c.Queued
				p.TotalWait = c.TotalWait
				p.Top = c.Top
			}
			rep.Replays = append(rep.Replays, p)
		}
	}
	return rep, nil
}
