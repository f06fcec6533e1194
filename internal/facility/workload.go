package facility

import (
	"fmt"
	"math"
	"math/rand"

	"roadrunner/internal/fabric"
	"roadrunner/internal/linpack"
	"roadrunner/internal/params"
	"roadrunner/internal/sweep3d"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
	"roadrunner/internal/triblade"
	"roadrunner/internal/units"
)

// JobClass names the applications in the facility's mix — the three the
// paper reports sharing the machine.
type JobClass int

// The job classes.
const (
	// ClassSweep3D jobs run the at-scale Cell (measured) wavefront
	// model: runtime = CellIterationTime(PaperWeakScaling) x iterations
	// at the job's node count.
	ClassSweep3D JobClass = iota
	// ClassLinpack jobs run the memory-proportional hybrid HPL model:
	// the problem order grows with sqrt(nodes) (constant memory per
	// node, the way real HPL runs are sized), the rate is the node
	// count at the calibrated 74.4% sustained efficiency.
	ClassLinpack
	// ClassTrace jobs replay a captured schedule through a
	// trace.Evaluator under the node allocation actually granted, so
	// their runtime depends on what the allocator did — the
	// production-shaped objective the placement-assisted allocator
	// optimizes.
	ClassTrace
)

// String names the class for reports.
func (c JobClass) String() string {
	switch c {
	case ClassSweep3D:
		return "sweep3d"
	case ClassLinpack:
		return "linpack"
	case ClassTrace:
		return "trace"
	}
	return fmt.Sprintf("JobClass(%d)", int(c))
}

// ClassSpec is one line of the declarative job-mix: a class, its draw
// weight, the node counts it submits at, and its iteration-count range.
type ClassSpec struct {
	Class  JobClass
	Weight int
	// Nodes are the candidate request sizes; each job draws one
	// uniformly. ClassTrace ignores this — a trace job's size is the
	// trace's rank count.
	Nodes []int
	// MinIters..MaxIters bounds the per-job iteration draw (both
	// default to 1; ClassLinpack always runs one factorisation).
	MinIters int
	MaxIters int
}

// Workload is the declarative arrival-process spec: a seeded Poisson
// stream of Jobs jobs drawn from the weighted class mix. The same spec
// always generates the same job list.
type Workload struct {
	Name string
	Seed int64
	Jobs int
	// MeanInterarrival is the exponential interarrival mean.
	MeanInterarrival units.Time
	Classes          []ClassSpec
}

// Job is one generated submission. Runtime is the scheduler's estimate:
// exact for the model classes, the reference-mapping replay for
// ClassTrace (the granted mapping can only be priced at start time).
type Job struct {
	ID      int
	Class   JobClass
	Nodes   int
	Arrival units.Time
	Iters   int
	Runtime units.Time
}

// Generate expands the spec into its deterministic job list. rt backs
// ClassTrace runtime estimates and may be nil when the mix has no trace
// jobs.
func (w Workload) Generate(rt *TraceRuntime) ([]Job, error) {
	if w.Jobs < 1 {
		return nil, fmt.Errorf("facility: workload %q: %d jobs", w.Name, w.Jobs)
	}
	if w.MeanInterarrival <= 0 {
		return nil, fmt.Errorf("facility: workload %q: mean interarrival %v", w.Name, w.MeanInterarrival)
	}
	total := 0
	for i, c := range w.Classes {
		if c.Weight < 0 {
			return nil, fmt.Errorf("facility: workload %q: class %d weight %d", w.Name, i, c.Weight)
		}
		if c.Class == ClassTrace && rt == nil {
			return nil, fmt.Errorf("facility: workload %q: trace class without a trace runtime", w.Name)
		}
		if c.Class != ClassTrace && len(c.Nodes) == 0 {
			return nil, fmt.Errorf("facility: workload %q: class %d (%v) has no node counts", w.Name, i, c.Class)
		}
		total += c.Weight
	}
	if total == 0 {
		return nil, fmt.Errorf("facility: workload %q: no positive class weights", w.Name)
	}

	rng := rand.New(rand.NewSource(w.Seed))
	jobs := make([]Job, 0, w.Jobs)
	// Sweep3D's per-iteration time simulates the SPE kernel program, so
	// it is computed once per distinct node count.
	sweepIter := map[int]units.Time{}
	now := units.Time(0)
	for id := 0; id < w.Jobs; id++ {
		// Fixed draw order per job — class, size, iters, gap — so the
		// stream is stable under spec edits that do not touch it.
		pick := rng.Intn(total)
		var spec ClassSpec
		for _, c := range w.Classes {
			if pick < c.Weight {
				spec = c
				break
			}
			pick -= c.Weight
		}
		j := Job{ID: id, Class: spec.Class, Arrival: now, Iters: 1}
		if spec.Class == ClassTrace {
			j.Nodes = rt.Ranks()
		} else {
			j.Nodes = spec.Nodes[rng.Intn(len(spec.Nodes))]
		}
		lo, hi := spec.MinIters, spec.MaxIters
		if lo < 1 {
			lo = 1
		}
		if hi < lo {
			hi = lo
		}
		j.Iters = lo + rng.Intn(hi-lo+1)
		switch spec.Class {
		case ClassSweep3D:
			if _, ok := sweepIter[j.Nodes]; !ok {
				sweepIter[j.Nodes] = Sweep3DRuntime(j.Nodes, 1)
			}
			j.Runtime = sweepIter[j.Nodes] * units.Time(j.Iters)
		case ClassLinpack:
			j.Iters = 1
			j.Runtime = LinpackRuntime(j.Nodes)
		case ClassTrace:
			j.Runtime = rt.Reference() * units.Time(j.Iters)
		default:
			return nil, fmt.Errorf("facility: workload %q: unknown class %v", w.Name, spec.Class)
		}
		if j.Runtime <= 0 {
			return nil, fmt.Errorf("facility: workload %q: job %d (%v, %d nodes) has runtime %v",
				w.Name, id, j.Class, j.Nodes, j.Runtime)
		}
		jobs = append(jobs, j)
		gap := math.Round(rng.ExpFloat64() * float64(w.MeanInterarrival))
		next := now + units.Time(gap)
		if id+1 < w.Jobs && (gap >= math.MaxInt64 || next < now) {
			return nil, fmt.Errorf("facility: workload %q: job %d would arrive after the simulated clock ends at %v",
				w.Name, id+1, units.Time(math.MaxInt64))
		}
		now = next
	}
	return jobs, nil
}

// Sweep3DRuntime returns the modelled wall-clock of iters weak-scaling
// Sweep3D iterations at a node count — the Fig. 13 Cell (measured)
// series times the iteration count.
func Sweep3DRuntime(nodes, iters int) units.Time {
	return sweep3d.CellIterationTime(sweep3d.PaperWeakScaling(), nodes, sweep3d.CellMeasured) *
		units.Time(iters)
}

// linpackFullMachineN is the record run's problem order on all 3,060
// nodes; smaller partitions scale it by sqrt(nodes/3060), holding the
// per-node memory footprint (N²/nodes) constant.
const linpackFullMachineN = 2_300_000

// LinpackRuntime returns the modelled wall-clock of one hybrid-HPL
// factorisation on a node count: 2/3·N³ flops at the partition's peak
// times the calibrated 74.4% sustained efficiency.
func LinpackRuntime(nodes int) units.Time {
	n := linpackFullMachineN * math.Sqrt(float64(nodes)/float64(FullMachineCUs*params.NodesPerCU))
	flops := 2.0 / 3.0 * n * n * n
	sustained := float64(triblade.New().PeakDP()) * float64(nodes) * linpack.RoadrunnerHPL().Efficiency()
	return units.FromSeconds(flops / sustained)
}

// TraceRuntime prices ClassTrace jobs: one pooled trace.Evaluator, the
// reference (linear lowest-nodes) per-iteration makespan for estimates,
// and Evaluate for the granted mapping at job start. The replay fabric
// must cover every node the facility's allocators can grant.
type TraceRuntime struct {
	Trace  *trace.Trace
	Replay trace.ReplayConfig

	eval *trace.Evaluator
	ref  units.Time
}

// NewTraceRuntime validates the trace once and computes the reference
// per-iteration makespan: rank i on global node i, core 0 — the mapping
// a fresh machine's contiguous allocator would grant the first job.
func NewTraceRuntime(t *trace.Trace, cfg trace.ReplayConfig) (*TraceRuntime, error) {
	ev, err := trace.NewEvaluator(t, cfg)
	if err != nil {
		return nil, err
	}
	places := make([]transport.Endpoint, t.Meta.Ranks)
	for i := range places {
		places[i] = transport.Endpoint{Node: fabric.FromGlobal(i)}
	}
	res, err := ev.Evaluate(places)
	if err != nil {
		ev.Close()
		return nil, err
	}
	return &TraceRuntime{Trace: t, Replay: cfg, eval: ev, ref: res.Time}, nil
}

// Ranks returns the trace's rank count — the node request size of every
// ClassTrace job (one rank per node, core 0).
func (rt *TraceRuntime) Ranks() int { return rt.Trace.Meta.Ranks }

// Reference returns the per-iteration makespan under the reference
// mapping.
func (rt *TraceRuntime) Reference() units.Time { return rt.ref }

// Evaluate prices one iteration under a granted mapping.
func (rt *TraceRuntime) Evaluate(places []transport.Endpoint) (units.Time, error) {
	res, err := rt.eval.Evaluate(places)
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}

// Close releases the pooled evaluator.
func (rt *TraceRuntime) Close() {
	if rt.eval != nil {
		rt.eval.Close()
	}
}
