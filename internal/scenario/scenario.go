// Package scenario composes the collective engine into machine-scaling
// sweeps: the same collective run across communicator sizes from one
// crossbar (8 nodes) to the full 17-CU machine, across the algorithm
// repertoire, and across message-size regimes. Each sweep is a pure
// function of the calibrated models — deterministic, cacheable, and
// registered as experiments by internal/experiments — turning the repo
// from single-pair microbenchmarks into a scenario engine for the whole
// fabric.
package scenario

import (
	"fmt"

	"roadrunner/internal/collectives"
	"roadrunner/internal/ib"
	"roadrunner/internal/linpack"
	"roadrunner/internal/machine"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// Point is one collective measurement inside a sweep.
type Point struct {
	Scenario  string
	Op        collectives.Op
	Nodes     int // nodes the communicator spans
	Ranks     int
	Size      units.Size
	Time      units.Time
	Bandwidth units.Bandwidth
	Messages  int64
	WireBytes units.Size
	Events    int64 // DES events dispatched producing this point
}

// String renders the point on one line.
func (p Point) String() string {
	return fmt.Sprintf("%s %s ranks=%d size=%v: %v (%d msgs)",
		p.Scenario, p.Op, p.Ranks, p.Size, p.Time, p.Messages)
}

// runPoint executes one collective over the canonical communicator for
// the rank count (collectives.DefaultConfig: one rank per node on a
// near core, smallest fabric that holds them).
func runPoint(name string, op collectives.Op, ranks int, size units.Size) (Point, error) {
	cfg, err := collectives.DefaultConfigOn(TopologyName(), ranks)
	if err != nil {
		return Point{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	res, err := collectives.Run(cfg, op, size)
	if err != nil {
		return Point{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	return Point{
		Scenario:  name,
		Op:        op,
		Nodes:     ranks,
		Ranks:     ranks,
		Size:      size,
		Time:      res.Time,
		Bandwidth: res.Bandwidth(),
		Messages:  res.Messages,
		WireBytes: res.WireBytes,
		Events:    res.EngineStats.Dispatched,
	}, nil
}

// ScalingNodeCounts are the communicator sizes of the latency-scaling
// sweep: one crossbar, one CU, multiples of CUs, the full machine.
var ScalingNodeCounts = []int{8, 16, 32, 64, 128, 180, 360, 720, 1530, 3060}

// ScalingOps are the latency-bound collectives swept across the machine.
var ScalingOps = []collectives.Op{
	collectives.BarrierRecursiveDoubling,
	collectives.BcastBinomial,
	collectives.AllreduceRecursiveDoubling,
}

// scalingSize keeps the scaling sweep in the hop-limited regime: an
// 8-byte payload, the classic latency microbenchmark point.
const scalingSize = 8 * units.Byte

// LatencyScaling sweeps the latency-bound collectives from one crossbar
// to all 3,060 nodes at an 8-byte payload. In this regime every
// algorithm is rounds × (software overhead + hop latency), so time
// grows as ceil(log2 P) stretched by the hop profile of the fat tree.
func LatencyScaling() ([]Point, error) {
	var out []Point
	for _, op := range ScalingOps {
		for _, n := range ScalingNodeCounts {
			p, err := runPoint("latency-scaling", op, n, scalingSize)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// CrossoverRanks is the communicator size of the algorithm-crossover
// sweep (one rank per node, inside one CU).
const CrossoverRanks = 64

// CrossoverSizes spans the latency-to-bandwidth transition.
var CrossoverSizes = []units.Size{
	64 * units.Byte, 1 * units.KB, 8 * units.KB,
	64 * units.KB, 512 * units.KB, 4 * units.MB,
}

// CrossoverOps are the allreduce algorithms compared size by size.
var CrossoverOps = []collectives.Op{
	collectives.AllreduceRecursiveDoubling,
	collectives.AllreduceRabenseifner,
	collectives.AllreduceRing,
}

// AllreduceCrossover sweeps the three allreduce algorithms across
// message sizes at a fixed communicator: recursive doubling wins the
// latency regime, the ring wins the bandwidth regime, Rabenseifner sits
// between — the crossover an MPI's algorithm selector keys on.
func AllreduceCrossover() ([]Point, error) {
	var out []Point
	for _, op := range CrossoverOps {
		for _, s := range CrossoverSizes {
			p, err := runPoint("allreduce-crossover", op, CrossoverRanks, s)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// CrossoverSize returns the smallest swept size at which candidate beats
// baseline, or 0 if it never does.
func CrossoverSize(points []Point, baseline, candidate collectives.Op) units.Size {
	byKey := map[string]units.Time{}
	for _, p := range points {
		byKey[fmt.Sprintf("%s/%d", p.Op, p.Size)] = p.Time
	}
	for _, s := range CrossoverSizes {
		b, okB := byKey[fmt.Sprintf("%s/%d", baseline, s)]
		c, okC := byKey[fmt.Sprintf("%s/%d", candidate, s)]
		if okB && okC && c < b {
			return s
		}
	}
	return 0
}

// ExchangeRankCounts are the communicator sizes of the dense-exchange
// sweep, from one crossbar to a whole CU.
var ExchangeRankCounts = []int{8, 16, 32, 64, 128, 180}

// exchangeSize is the per-block payload of the dense-exchange sweep.
const exchangeSize = 4 * units.KB

// CUExchange sweeps the dense collectives (ring allgather and pairwise
// alltoall) within a single CU: total traffic grows linearly in P per
// rank, so these are the operations that stress crossbar ports rather
// than tree depth.
func CUExchange() ([]Point, error) {
	var out []Point
	for _, op := range []collectives.Op{collectives.AllgatherRing, collectives.AlltoallPairwise} {
		for _, n := range ExchangeRankCounts {
			p, err := runPoint("cu-exchange", op, n, exchangeSize)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// PanelBroadcastResult is the LINPACK panel-broadcast scenario: one DES
// measurement of the broadcast HPL issues per panel, scaled to the whole
// factorisation by the linpack phase model.
type PanelBroadcastResult struct {
	Spec       linpack.PanelBroadcast
	RowRanks   int        // broadcast communicator size (grid columns)
	PanelBytes units.Size // payload of one mid-factorisation panel
	// BinomialPerPanel is the DES-measured binomial-tree broadcast of
	// one panel across a process row spread over the machine.
	BinomialPerPanel units.Time
	// PipelinedPerPanel is the analytic ring/segmented lower bound.
	PipelinedPerPanel units.Time
	// Fractions of the factorisation's runtime each variant would cost
	// unoverlapped, against the measured sustained rate.
	BinomialFraction  float64
	PipelinedFraction float64
	Sustained         units.Flops
	Events            int64
}

// PanelBroadcast runs the LINPACK panel-broadcast scenario on the full
// machine: a process row of the 51×60 grid is a stride-51 walk across
// the nodes, and the mid-factorisation panel is broadcast over it with
// the binomial tree. Comparing the resulting runtime fraction with the
// hybrid model's OverlapLoss shows why HPL pipelines its long
// broadcasts instead of using the latency-optimal tree.
func PanelBroadcast() (*PanelBroadcastResult, error) {
	spec := linpack.RoadrunnerPanelBroadcast()
	fab := newFabric()
	prof := ib.OpenMPI()
	places, err := transport.StridedPlacement(fab, spec.GridCols, spec.RowStride(), 1)
	if err != nil {
		return nil, fmt.Errorf("scenario panel-broadcast: %w", err)
	}
	cfg := collectives.Config{Fabric: fab, Profile: prof, Places: places}
	res, err := collectives.Run(cfg, collectives.BcastBinomial, spec.PanelBytes())
	if err != nil {
		return nil, fmt.Errorf("scenario panel-broadcast: %w", err)
	}
	sys := machine.New(machine.Full())
	sustained := sys.LinpackSustained(linpack.RoadrunnerHPL().Efficiency())
	pipelined := spec.PipelinedPerPanel(prof.NearBandwidth)
	return &PanelBroadcastResult{
		Spec:              spec,
		RowRanks:          spec.GridCols,
		PanelBytes:        spec.PanelBytes(),
		BinomialPerPanel:  res.Time,
		PipelinedPerPanel: pipelined,
		BinomialFraction:  spec.BroadcastFraction(res.Time, sustained),
		PipelinedFraction: spec.BroadcastFraction(pipelined, sustained),
		Sustained:         sustained,
		Events:            res.EngineStats.Dispatched,
	}, nil
}
