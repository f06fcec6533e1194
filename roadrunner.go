// Package roadrunner is the public facade of a full reproduction of
// "Entering the Petaflop Era: The Architecture and Performance of
// Roadrunner" (Barker et al., SC 2008).
//
// The hardware the paper measures no longer exists, so this library
// reproduces the system in simulation: a cycle-approximate SPU pipeline,
// memory-hierarchy models, the triblade's DaCS/PCIe and HyperTransport
// plumbing, the 17-CU InfiniBand fat tree at crossbar granularity, host
// MPI and the SPE-centric Cell Messaging Layer on a deterministic
// discrete-event engine, a real Sweep3D transport solver, and a real
// blocked-LU LINPACK kernel. Every table and figure of the paper's
// evaluation is regenerated by a registered experiment; see DESIGN.md and
// EXPERIMENTS.md for the inventory and measured-vs-paper record.
//
// Beyond the paper's figures, a collective-communication engine
// (internal/collectives) runs MPI collective algorithms as
// discrete-event processes over the fabric and protocol models, and a
// scenario layer (internal/scenario) sweeps them across communicator
// sizes from one crossbar to the full machine — registered as the
// coll-* experiments.
//
// The evaluation is a suite of independent artifacts, so the preferred
// way to regenerate it is the orchestrator: a worker pool that runs one
// deterministic DES engine per experiment across all CPUs, with a
// content-addressed artifact cache and streaming structured results.
//
// Quick start:
//
//	results, _ := roadrunner.RunSuite(context.Background(), roadrunner.SuiteOptions{})
//	for _, r := range results {
//	    fmt.Println(r.Artifact)
//	}
//
// A parallel run yields byte-identical artifacts to a serial run
// (SuiteOptions{Workers: 1}); see internal/orchestrator for the contract.
package roadrunner

import (
	"context"
	"fmt"
	"io"

	"roadrunner/internal/cml"
	"roadrunner/internal/collectives"
	"roadrunner/internal/experiments"
	"roadrunner/internal/fabric"
	"roadrunner/internal/facility"
	"roadrunner/internal/machine"
	"roadrunner/internal/orchestrator"
	"roadrunner/internal/params"
	"roadrunner/internal/scenario"
	"roadrunner/internal/serve"
	"roadrunner/internal/surrogate"
	"roadrunner/internal/sweep3d"
	"roadrunner/internal/trace"
	"roadrunner/internal/units"
)

// Experiment is a runnable reproduction of one paper artifact.
type Experiment = experiments.Experiment

// Artifact is an experiment's rendered output and checks.
type Artifact = experiments.Artifact

// SuiteOptions configures an orchestrated suite run: pool size (<= 0
// means GOMAXPROCS), per-experiment timeout, artifact cache, and the
// per-result streaming callback.
type SuiteOptions = orchestrator.Options

// SuiteResult is one experiment's outcome in an orchestrated run.
type SuiteResult = orchestrator.Result

// ArtifactCache is the content-addressed artifact store used to skip
// recomputing experiments whose model inputs are unchanged.
type ArtifactCache = orchestrator.Cache

// SuiteStreamer adapts JSONL and CSV emitters into a SuiteOptions
// OnResult callback.
type SuiteStreamer = orchestrator.Streamer

// Experiments returns every registered experiment in paper order:
// all tables, all figures, the LINPACK headline and the ablations.
func Experiments() []Experiment { return experiments.All() }

// ExperimentIDs returns the sorted experiment identifiers.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment runs one experiment by ID ("table1" .. "fig14",
// "linpack", "ablation-*"), then measures its host checks, if it has
// any.
func RunExperiment(id string) (*Artifact, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return nil, fmt.Errorf("roadrunner: unknown experiment %q (have %v)", id, experiments.IDs())
	}
	a := e.Run()
	if e.Host != nil {
		a.Host = e.Host()
	}
	return a, nil
}

// RunSuite runs the full registered suite through the orchestrator and
// returns results in paper order. Per-experiment failures appear on the
// individual results; the returned error is non-nil only on context
// cancellation.
func RunSuite(ctx context.Context, opts SuiteOptions) ([]*SuiteResult, error) {
	return orchestrator.RunAll(ctx, opts)
}

// RunExperiments orchestrates the named subset of the suite, in the
// given order. Unknown IDs fail up front, before any work is scheduled.
func RunExperiments(ctx context.Context, ids []string, opts SuiteOptions) ([]*SuiteResult, error) {
	exps := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("roadrunner: unknown experiment %q (have %v)", id, experiments.IDs())
		}
		exps = append(exps, e)
	}
	return orchestrator.Run(ctx, exps, opts)
}

// FailedResults filters a suite run down to the experiments that errored
// or whose paper-vs-measured or host checks failed.
func FailedResults(results []*SuiteResult) []*SuiteResult {
	return orchestrator.Failed(results)
}

// OpenArtifactCache opens (creating if needed) a content-addressed
// artifact cache rooted at dir.
func OpenArtifactCache(dir string) (*ArtifactCache, error) {
	return orchestrator.OpenCache(dir)
}

// NewSuiteStreamer builds a streaming sink for suite results: one JSON
// line per completed experiment on jsonlW (nil disables), and one CSV
// file per table/figure under csvDir ("" disables). Pass its OnResult as
// SuiteOptions.OnResult.
func NewSuiteStreamer(jsonlW io.Writer, csvDir string) *SuiteStreamer {
	return orchestrator.NewStreamer(jsonlW, csvDir)
}

// ModelFingerprint returns the digest over every calibrated model input
// (internal/params). Together with a digest of the running executable it
// forms the content address of artifact cache entries: same inputs, same
// code, same artifact.
func ModelFingerprint() string { return params.Fingerprint() }

// Machine returns the full 3,060-node Roadrunner system model.
func Machine() *machine.System { return machine.New(machine.Full()) }

// ScaledMachine returns a system with the given number of 180-node
// Connected Units (1..24).
func ScaledMachine(cus int) *machine.System {
	return machine.New(machine.Config{CUs: cus, NodesPerCU: 180})
}

// Fabric returns the full InfiniBand fat-tree model.
func Fabric() *fabric.System { return fabric.New() }

// Topologies returns the registered fabric topology names: the paper's
// tapered fat-tree (the default), its ECMP-spread and full-bisection
// variants, and a 3D torus.
func Topologies() []string { return fabric.Topologies() }

// CollectiveOp identifies one of the implemented collective algorithms
// (binomial broadcast, recursive-doubling barrier and allreduce,
// Rabenseifner and ring allreduce, ring allgather, pairwise alltoall).
type CollectiveOp = collectives.Op

// CollectiveResult is one collective run's outcome: slowest-rank
// completion time, message and wire-byte counts, and engine statistics.
type CollectiveResult = collectives.Result

// CollectiveOps returns every implemented collective algorithm.
func CollectiveOps() []CollectiveOp { return collectives.Ops() }

// RunCollective runs one collective over the given number of nodes (one
// rank per node, near-core placement, smallest fabric that holds them)
// as discrete-event processes, with every message routed through the
// fat-tree model and charged against the MPI/IB protocol model. Links
// have infinite capacity here; RunCollectiveCongested adds link-level
// congestion.
func RunCollective(op CollectiveOp, nodes int, size units.Size) (*CollectiveResult, error) {
	cfg, err := collectives.DefaultConfig(nodes)
	if err != nil {
		return nil, err
	}
	return collectives.Run(cfg, op, size)
}

// RunCollectiveCongested is RunCollective on the congestion-aware
// transport: every message is routed over the explicit cable topology
// (node ports, CU spines, the 2:1-tapered uplinks, inter-CU switch
// internals) and concurrent flows crossing the same cable serialize.
// The Result's Congestion census reports the most contended links.
func RunCollectiveCongested(op CollectiveOp, nodes int, size units.Size) (*CollectiveResult, error) {
	cfg, err := collectives.CongestedConfig(nodes)
	if err != nil {
		return nil, err
	}
	return collectives.Run(cfg, op, size)
}

// Trace is a captured communication schedule: ordered per-rank streams
// of point-to-point send/recv/compute records with logical timestamps
// and explicit cross-rank dependencies, serialized as JSONL.
type Trace = trace.Trace

// TraceReplayConfig places a trace's ranks on the machine (fabric,
// rank→endpoint mapping, congestion policy) for replay. Its Observe
// field opts in to the expensive observers; the zero value replays
// makespan-only.
type TraceReplayConfig = trace.ReplayConfig

// ObserveAll turns on every replay observer of a TraceReplayConfig:
// per-message timing and the link-contention census.
const ObserveAll = trace.ObserveAll

// TraceEvaluator is the batch replay evaluation path: the trace is
// validated once and the sim engine, transport state, route caches and
// rank walkers are pooled, so evaluating one more placement costs only
// the replay's events — ~4x faster than a one-shot ReplayTrace per
// evaluation at makespan-only observation, with ~50x fewer
// allocations. Close it when done.
type TraceEvaluator = trace.Evaluator

// NewTraceEvaluator builds a pooled evaluator for the trace; the
// config's Places field is ignored (each Evaluate call takes the
// placement).
func NewTraceEvaluator(t *Trace, cfg TraceReplayConfig) (*TraceEvaluator, error) {
	return trace.NewEvaluator(t, cfg)
}

// TraceReplayResult is one replay's outcome: makespan, per-message
// timing, transport counters and the link-contention census.
type TraceReplayResult = trace.ReplayResult

// CaptureSweepTrace runs one Sweep3D source iteration on the DES machine
// (px x py SPE ranks over the Cell Messaging Layer) and records the KBA
// wavefront schedule — every boundary receive, block compute and
// boundary send — as a replayable trace.
func CaptureSweepTrace(cfg SweepConfig, px, py int) (*Trace, error) {
	_, t, err := sweep3d.CaptureDES(cfg, px, py, cml.CurrentSoftware())
	return t, err
}

// ReplayTrace replays a captured trace over the transport: one
// event-driven walker per rank steps through its stream in order under
// the configured placement and congestion policy, driving every send
// through the routed message path.
func ReplayTrace(t *Trace, cfg TraceReplayConfig) (*TraceReplayResult, error) {
	return trace.Replay(t, cfg)
}

// SaveTrace writes a trace as JSONL; LoadTrace reads and validates one.
func SaveTrace(path string, t *Trace) error { return trace.Save(path, t) }

// LoadTrace loads a JSONL trace file, rejecting any malformed or
// deadlock-prone input.
func LoadTrace(path string) (*Trace, error) { return trace.Load(path) }

// TopoCompareReport is the topology-comparison sweep's outcome: the
// saturation collectives and the captured Sweep3D replay measured on
// every registered fabric topology.
type TopoCompareReport = scenario.TopoCompareReport

// TopoCompareSweep runs the collectives and the Sweep3D replay across
// every registered topology — the topo-compare experiment's engine.
func TopoCompareSweep() (*TopoCompareReport, error) { return scenario.TopoCompare() }

// SurrogateModel is the analytic queueing surrogate: a deterministic
// event-driven walk of a trace's schedule over the topology's routes
// that prices a rank→node mapping in microseconds instead of the
// milliseconds a pooled DES replay costs. Calibrate fits its term
// weights against DES-replayed anchors; the two-tier placement search
// (rrtrace optimize -surrogate) uses it to screen candidates.
type SurrogateModel = surrogate.Model

// NewSurrogate builds a surrogate matching a replay configuration
// (fabric, profile, policy, compute scaling and SkipCompute honored),
// so it prices exactly the objective the DES replays.
func NewSurrogate(tr *Trace, cfg TraceReplayConfig) (*SurrogateModel, error) {
	return surrogate.NewReplay(tr, cfg)
}

// SurrogateSpearman is the rank-correlation figure of merit between two
// cost lists (ties averaged; NaN for degenerate input): a screening
// tier needs the ordering right, not the absolute times.
func SurrogateSpearman(a, b []units.Time) float64 { return surrogate.Spearman(a, b) }

// ServeOptions configures the simulation-as-a-service HTTP server:
// worker shards, queue depth, body bounds, warm evaluator pools and
// the persistent artifact cache.
type ServeOptions = serve.Options

// Server is the long-running HTTP/JSON serving layer over the replay,
// placement-search and collective engines: submissions become jobs
// (queued → running → done | failed), identical requests coalesce,
// finished artifacts are content-addressed in the cache, and every
// artifact is byte-identical however it was scheduled. docs/api.md is
// the endpoint reference; cmd/rrserve the CLI entry point.
type Server = serve.Server

// NewServer builds a serving instance and starts its workers. Serve
// its Handler() over HTTP and Close() it on shutdown.
func NewServer(opts ServeOptions) *Server { return serve.New(opts) }

// FacilityWorkload is a declarative job-mix specification for the
// facility simulator: a seeded deterministic arrival stream over
// weighted LINPACK, Sweep3D and trace-replay job classes.
type FacilityWorkload = facility.Workload

// FacilityJobClass identifies a workload job class.
type FacilityJobClass = facility.JobClass

// FacilityClassTrace is the facility job class that replays a captured
// communication schedule under the granted mapping.
const FacilityClassTrace = facility.ClassTrace

// FacilityResult is one facility simulation's accounting: per-job
// outcomes plus utilization, queue waits, bounded slowdown,
// fragmentation over time and the oracle-packer comparison.
type FacilityResult = facility.Result

// FacilityStreamReport is the full policy x allocator facility sweep.
type FacilityStreamReport = scenario.FacilityStreamReport

// DefaultFacilityWorkload returns the canonical 48-job
// LINPACK/Sweep3D/trace mix the facility-stream experiment runs.
func DefaultFacilityWorkload() FacilityWorkload { return scenario.FacilityWorkload() }

// RunFacility simulates one batch-scheduling policy ("fcfs" or "easy")
// over one node allocator ("contiguous", "scattered" or "assisted")
// driving the full 3,060-node machine under the given workload. Mixes
// with trace-replay jobs capture the canonical Sweep3D schedule first;
// model-only mixes run in milliseconds.
func RunFacility(policy, alloc string, w FacilityWorkload) (*FacilityResult, error) {
	return scenario.FacilityRun(policy, alloc, w)
}

// FacilitySweep runs the canonical mix over every policy x allocator
// combination, twice, and reports the points plus whether the second
// pass was byte-identical — the facility-stream experiment's engine.
func FacilitySweep() (*FacilityStreamReport, error) { return scenario.FacilityStream() }

// SweepConfig is the Sweep3D problem configuration.
type SweepConfig = sweep3d.Config

// PaperSweepConfig returns the paper's weak-scaling configuration
// (5x5x400 per SPE, MK=20, 6 angles).
func PaperSweepConfig() SweepConfig { return sweep3d.PaperWeakScaling() }

// SolveSweep runs the real transport solver serially for the composed
// problem and returns the scalar-flux result.
func SolveSweep(cfg SweepConfig, px, py int) *sweep3d.Result {
	return sweep3d.SolveParallelHost(cfg, px, py)
}

// SweepIterationTime evaluates the at-scale performance model for one of
// the Fig. 13 series ("opteron", "measured", "best").
func SweepIterationTime(cfg SweepConfig, nodes int, series string) (units.Time, error) {
	switch series {
	case "opteron":
		return sweep3d.OpteronIterationTime(cfg, nodes), nil
	case "measured":
		return sweep3d.CellIterationTime(cfg, nodes, sweep3d.CellMeasured), nil
	case "best":
		return sweep3d.CellIterationTime(cfg, nodes, sweep3d.CellBest), nil
	default:
		return 0, fmt.Errorf("roadrunner: unknown series %q", series)
	}
}
