package scenario

import (
	"fmt"
	"runtime"

	"roadrunner/internal/cml"
	"roadrunner/internal/collectives"
	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/sweep3d"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// The trace-replay sweep is the first scenario that runs a real
// application phase — not a synthetic collective — over the congested
// transport: one Sweep3D source iteration is captured from the DES run
// as a point-to-point trace (the KBA wavefront schedule), then replayed
// under several rank→node placements, each on the wormhole fabric and on
// the infinite-capacity fabric. Placement changes both the hop profile
// and which cables the wavefront's boundary exchanges share, so the
// sweep quantifies mapping sensitivity against the link-contention
// census rather than hop counts alone.

// TraceReplayPx and TraceReplayPy fix the captured decomposition: an
// 8x8 rank grid, big enough that strided placement spreads the wavefront
// over many CUs.
const (
	TraceReplayPx = 8
	TraceReplayPy = 8
)

// TraceReplayGrid is the captured per-rank problem (the rrsim -des
// configuration: a quarter-height paper subgrid, 4 K blocks).
var TraceReplayGrid = sweep3d.Config{I: 5, J: 5, K: 40, MK: 10, Angles: 6}

// TraceReplayPlacementNames are the rank→node mappings the sweep
// replays under, in sweep order.
var TraceReplayPlacementNames = []string{"block", "strided", "packed"}

// TraceReplayStride is the strided placement's step: one full CU, so
// consecutive ranks land in consecutive CUs and every boundary exchange
// crosses the inter-CU tier.
const TraceReplayStride = 180

// TraceReplayPerNode is the packed placement's rank density: all four
// Opteron cores of a node host ranks, so x-neighbors in the wavefront
// often share a node (and its HCA).
const TraceReplayPerNode = 4

// traceReplayPlaces builds one named placement over the fabric.
// TraceReplayPlaces builds one of the standard replay placements —
// "block", "strided" or "packed" — for a ranks-wide trace; the CLIs'
// batch replays reuse the scenario's exact mappings.
func TraceReplayPlaces(name string, fab *fabric.System, ranks int) ([]transport.Endpoint, error) {
	return traceReplayPlaces(name, fab, ranks)
}

func traceReplayPlaces(name string, fab *fabric.System, ranks int) ([]transport.Endpoint, error) {
	var places []collectives.Placement
	switch name {
	case "block":
		places = collectives.BlockPlacement(fab, ranks, 1)
	case "strided":
		places = collectives.StridedPlacement(fab, ranks, TraceReplayStride, 1)
	case "packed":
		places = collectives.PackedPlacement(fab, ranks, TraceReplayPerNode)
	default:
		return nil, fmt.Errorf("scenario trace-replay: unknown placement %q", name)
	}
	out := make([]transport.Endpoint, len(places))
	for i, p := range places {
		out[i] = transport.Endpoint{Node: p.Node, Core: p.Core}
	}
	return out, nil
}

// TraceReplayPoint is one placement's measurement: the captured
// iteration replayed on the congested and the infinite-capacity fabric.
type TraceReplayPoint struct {
	Placement string
	// MeanHops is the average crossbar hop count over the trace's send
	// records under this placement (intra-node sends count zero).
	MeanHops float64
	// Congested and Baseline are the replay makespans on the wormhole
	// and the infinite-capacity fabric; Slowdown their ratio. Sweep3D's
	// pipeline interleaves compute with its exchanges, so these move
	// little with placement.
	Congested units.Time
	Baseline  units.Time
	Slowdown  float64
	// CommCongested and CommBaseline replay the same schedule with
	// compute records stripped (SkipCompute): the bare wavefront
	// message storm, where placement and congestion show undamped.
	CommCongested units.Time
	CommBaseline  units.Time
	CommSlowdown  float64
	// Messages and WireBytes are the congested run's transport counters
	// (wire bytes drop when placement makes exchanges intra-node).
	Messages  int64
	WireBytes units.Size
	// Queueing totals from the congested run's census, uplink tier
	// broken out, plus the hottest links.
	QueuedFlows  int64
	TotalWait    units.Time
	UplinkQueued int64
	UplinkWait   units.Time
	Top          []transport.LinkUsage
	Events       int64
}

// String renders the point on one line.
func (p TraceReplayPoint) String() string {
	return fmt.Sprintf("trace-replay %s: congested %v vs %v (%.3fx, wait %v, %.2f hops/msg)",
		p.Placement, p.Congested, p.Baseline, p.Slowdown, p.TotalWait, p.MeanHops)
}

// TraceReplayReport is the whole sweep: the captured trace's shape plus
// one point per placement.
type TraceReplayReport struct {
	TraceName string
	Ranks     int
	Records   int
	Sends     int
	// TraceBytes is the payload total of the captured sends;
	// CaptureIteration the simulated iteration time of the capture run
	// (over the CML path, for reference against the replays).
	TraceBytes       units.Size
	CaptureIteration units.Time
	Points           []TraceReplayPoint
}

// CaptureSweep3DTrace captures the canonical Sweep3D iteration trace the
// sweep replays: TraceReplayPx x TraceReplayPy ranks on TraceReplayGrid.
func CaptureSweep3DTrace() (*trace.Trace, units.Time, error) {
	res, tr, err := sweep3d.CaptureDES(TraceReplayGrid, TraceReplayPx, TraceReplayPy, cml.CurrentSoftware())
	if err != nil {
		return nil, 0, fmt.Errorf("scenario trace-replay: capture: %w", err)
	}
	return tr, res.IterationTime, nil
}

// TraceReplay captures one Sweep3D iteration and replays it under every
// placement, congested vs infinite capacity.
func TraceReplay() (*TraceReplayReport, error) {
	tr, iter, err := CaptureSweep3DTrace()
	if err != nil {
		return nil, err
	}
	return ReplayUnderPlacements(tr, iter)
}

// ReplayUnderPlacements runs the placement sweep over an already
// captured (or loaded) trace.
func ReplayUnderPlacements(tr *trace.Trace, captureIteration units.Time) (*TraceReplayReport, error) {
	s := tr.Stats()
	rep := &TraceReplayReport{
		TraceName:        tr.Meta.Name,
		Ranks:            tr.Meta.Ranks,
		Records:          s.Records,
		Sends:            s.Sends,
		TraceBytes:       s.Bytes,
		CaptureIteration: captureIteration,
	}
	fab := newFabric()
	placements := make([][]transport.Endpoint, len(TraceReplayPlacementNames))
	for i, name := range TraceReplayPlacementNames {
		places, err := traceReplayPlaces(name, fab, tr.Meta.Ranks)
		if err != nil {
			return nil, err
		}
		placements[i] = places
	}
	// One evaluator pool per (policy, skip-compute) configuration, each
	// replaying every placement: the trace validates once per pool and
	// the engine/transport state is reused across the sweep. The
	// configurations run in turn; each pool's EvaluateMany spreads the
	// placements over GOMAXPROCS warm evaluators, with results
	// byte-identical at any worker count.
	run := func(pol transport.Policy, skipCompute bool, what string) ([]*trace.ReplayResult, error) {
		pool, err := trace.NewEvaluatorPool(tr, trace.ReplayConfig{
			Fabric:      fab,
			Profile:     ib.OpenMPI(),
			Policy:      pol,
			SkipCompute: skipCompute,
			Observe:     trace.ObserveCensus,
		}, runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, fmt.Errorf("scenario trace-replay: %s: %w", what, err)
		}
		defer pool.Close()
		out, err := pool.EvaluateMany(placements, 0)
		if err != nil {
			return nil, fmt.Errorf("scenario trace-replay: %s: %w", what, err)
		}
		return out, nil
	}
	// SkipCompute strips the compute records: the communication
	// schedule alone.
	configs := []struct {
		pol  transport.Policy
		skip bool
		what string
	}{
		{transport.Policy{}, false, "baseline"},
		{transport.Congested(), false, "congested"},
		{transport.Policy{}, true, "comm baseline"},
		{transport.Congested(), true, "comm congested"},
	}
	results := make([][]*trace.ReplayResult, len(configs))
	for i, c := range configs {
		var err error
		if results[i], err = run(c.pol, c.skip, c.what); err != nil {
			return nil, err
		}
	}
	base, cong, commBase, commCong := results[0], results[1], results[2], results[3]
	for i, name := range TraceReplayPlacementNames {
		p := TraceReplayPoint{
			Placement:     name,
			MeanHops:      meanSendHops(tr, fab, placements[i]),
			Congested:     cong[i].Time,
			Baseline:      base[i].Time,
			Slowdown:      float64(cong[i].Time) / float64(base[i].Time),
			CommCongested: commCong[i].Time,
			CommBaseline:  commBase[i].Time,
			CommSlowdown:  float64(commCong[i].Time) / float64(commBase[i].Time),
			Messages:      cong[i].Messages,
			WireBytes:     cong[i].WireBytes,
			Events:        cong[i].EngineStats.Dispatched,
		}
		if c := cong[i].Congestion; c != nil {
			p.QueuedFlows = c.Queued
			p.TotalWait = c.TotalWait
			p.UplinkQueued = c.UplinkQueued
			p.UplinkWait = c.UplinkWait
			p.Top = c.Top
		}
		rep.Points = append(rep.Points, p)
	}
	return rep, nil
}

// meanSendHops averages the routed hop count over the trace's sends
// under a placement.
func meanSendHops(tr *trace.Trace, fab *fabric.System, places []transport.Endpoint) float64 {
	var hops, sends int
	for _, r := range tr.Records {
		if r.Kind != trace.KindSend {
			continue
		}
		sends++
		hops += fab.Hops(places[r.Rank].Node, places[r.Peer].Node)
	}
	if sends == 0 {
		return 0
	}
	return float64(hops) / float64(sends)
}
