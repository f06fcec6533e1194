package facility

import (
	"math"
	"math/big"
	"reflect"
	"slices"
	"strings"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

func TestNodeMapReleaseErrors(t *testing.T) {
	m := NewNodeMap(2, 4)
	grant, ok := Contiguous{}.Alloc(m, 3)
	if !ok || len(grant) != 3 {
		t.Fatalf("alloc 3: ok=%v grant=%v", ok, grant)
	}
	if err := m.Release(grant); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := m.Release(grant); err == nil {
		t.Error("double free not detected")
	}
	if err := m.Release([]fabric.NodeID{{CU: 5, Node: 0}}); err == nil {
		t.Error("out-of-range CU free not detected")
	}
	if err := m.Release([]fabric.NodeID{{CU: 0, Node: 9}}); err == nil {
		t.Error("out-of-range node free not detected")
	}
	if m.Free() != m.Nodes() {
		t.Errorf("free = %d after failed releases, want %d", m.Free(), m.Nodes())
	}
}

func TestFragmentationMetric(t *testing.T) {
	if f := NewNodeMap(1, 4).Fragmentation(); f != 0 {
		t.Errorf("single-CU empty machine fragmentation = %v", f)
	}
	m := NewNodeMap(2, 4)
	// Fill CU 0: all free capacity is one whole CU -> frag 0.
	for g := 0; g < 4; g++ {
		m.take(g)
	}
	if f := m.Fragmentation(); f != 0 {
		t.Errorf("one-full-CU fragmentation = %v, want 0", f)
	}
	// Shift to 2 busy nodes in each CU: 4 free, max CU block 2 -> 0.5.
	if err := m.Release([]fabric.NodeID{{CU: 0, Node: 0}, {CU: 0, Node: 1}}); err != nil {
		t.Fatal(err)
	}
	m.take(4)
	m.take(5)
	if f := m.Fragmentation(); f != 0.5 {
		t.Errorf("split occupancy fragmentation = %v, want 0.5", f)
	}
	for g := 0; g < 8; g++ {
		if !m.Used(g) {
			m.take(g)
		}
	}
	if f := m.Fragmentation(); f != 0 {
		t.Errorf("full machine fragmentation = %v, want 0", f)
	}
}

// testWorkload is a small model-only mix (no trace jobs).
func testWorkload(seed int64, jobs int) Workload {
	return Workload{
		Name: "test", Seed: seed, Jobs: jobs,
		MeanInterarrival: 30 * units.Second,
		Classes: []ClassSpec{
			{Class: ClassSweep3D, Weight: 2, Nodes: []int{2, 4, 6}, MinIters: 50, MaxIters: 200},
			{Class: ClassLinpack, Weight: 1, Nodes: []int{4, 8}},
		},
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	w := testWorkload(7, 40)
	a, err := w.Generate(nil)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	b, err := w.Generate(nil)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same spec generated different job lists")
	}
	last := units.Time(0)
	for _, j := range a {
		if j.Arrival < last {
			t.Errorf("job %d arrives at %v before predecessor at %v", j.ID, j.Arrival, last)
		}
		last = j.Arrival
		if j.Runtime <= 0 {
			t.Errorf("job %d runtime %v", j.ID, j.Runtime)
		}
	}
}

func TestRuntimeModels(t *testing.T) {
	// Weak-scaling Sweep3D: more nodes, longer iteration (wider
	// wavefront), and iterations multiply.
	if a, b := Sweep3DRuntime(64, 1), Sweep3DRuntime(1024, 1); a >= b {
		t.Errorf("sweep3d runtime not growing with scale: %v at 64 vs %v at 1024", a, b)
	}
	if a, b := Sweep3DRuntime(64, 1), Sweep3DRuntime(64, 10); b != 10*a {
		t.Errorf("sweep3d iterations not linear: %v vs %v", a, b)
	}
	// Memory-proportional HPL: runtime grows like sqrt(nodes), and the
	// full-machine run lands in the record run's few-hours regime.
	if a, b := LinpackRuntime(256), LinpackRuntime(1024); b <= a {
		t.Errorf("linpack runtime shrank with scale: %v at 256 vs %v at 1024", a, b)
	}
	full := LinpackRuntime(3060).Seconds()
	if full < 3600 || full > 6*3600 {
		t.Errorf("full-machine linpack = %.0fs, want a few hours", full)
	}
}

// TestMeanWaitPastInt64 averages queue waits whose sum passes the int64
// picosecond range, as a long backlog's do: the mean stays between the
// smallest and the largest wait and is the exact truncated mean, and
// for sums that fit it equals sum/n.
func TestMeanWaitPastInt64(t *testing.T) {
	waits := make([]units.Time, 15000)
	for i := range waits {
		waits[i] = units.Time(math.MaxInt64/2 + int64(i)*7919)
	}
	waits[3] = 0
	waits[7] = math.MaxInt64
	lo, hi := slices.Min(waits), slices.Max(waits)
	sum := new(big.Int)
	for _, w := range waits {
		sum.Add(sum, big.NewInt(int64(w)))
	}
	if sum.IsInt64() {
		t.Fatal("waits sum within the int64 range — test is vacuous")
	}
	mean := meanTime(waits)
	if mean < lo || mean > hi {
		t.Errorf("mean wait %d outside [%d, %d]", mean, lo, hi)
	}
	if want := sum.Quo(sum, big.NewInt(int64(len(waits)))); big.NewInt(int64(mean)).Cmp(want) != 0 {
		t.Errorf("mean wait %d, want %v", mean, want)
	}
	small := []units.Time{5, 0, 13, 1 << 40, 7}
	if got, want := meanTime(small), (5+0+13+1<<40+7)/units.Time(len(small)); got != want {
		t.Errorf("mean of %v = %d, want sum/n = %d", small, got, want)
	}
}

// backfillJobs is the canonical EASY-vs-FCFS scenario on an 8-node
// machine: a long 6-node job holds the machine, an 8-node job blocks the
// queue, and a short 2-node job can only start early by backfilling.
func backfillJobs() []Job {
	return []Job{
		{ID: 0, Class: ClassSweep3D, Nodes: 6, Arrival: 0, Iters: 1, Runtime: 100 * units.Second},
		{ID: 1, Class: ClassSweep3D, Nodes: 8, Arrival: 1 * units.Second, Iters: 1, Runtime: 10 * units.Second},
		{ID: 2, Class: ClassSweep3D, Nodes: 2, Arrival: 2 * units.Second, Iters: 1, Runtime: 50 * units.Second},
	}
}

func TestEASYBackfillsFCFSDoesNot(t *testing.T) {
	run := func(p Policy) *Result {
		res, err := Run(Config{CUs: 2, PerCU: 4, Policy: p, Alloc: Scattered{}}, backfillJobs())
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		return res
	}
	fcfs := run(FCFS{})
	easy := run(EASY{})

	// FCFS: job 2 waits behind the blocked 8-node job.
	if got := fcfs.Jobs[2].Start; got != 110*units.Second {
		t.Errorf("fcfs job 2 start = %v, want 110s", got)
	}
	if fcfs.Backfilled != 0 {
		t.Errorf("fcfs backfilled %d jobs", fcfs.Backfilled)
	}
	// EASY: job 2 starts immediately (finishes at 52s, before the head's
	// 100s shadow) and is flagged as backfilled.
	if got := easy.Jobs[2].Start; got != 2*units.Second {
		t.Errorf("easy job 2 start = %v, want 2s", got)
	}
	if !easy.Jobs[2].Backfilled || easy.Backfilled != 1 {
		t.Errorf("easy backfill flags: job2=%v total=%d", easy.Jobs[2].Backfilled, easy.Backfilled)
	}
	// The head is not delayed by the backfill: job 1 starts when job 0
	// completes under both policies.
	if fcfs.Jobs[1].Start != easy.Jobs[1].Start {
		t.Errorf("backfill delayed the head: fcfs %v vs easy %v", fcfs.Jobs[1].Start, easy.Jobs[1].Start)
	}
	if easy.MeanWait >= fcfs.MeanWait {
		t.Errorf("easy mean wait %v not below fcfs %v", easy.MeanWait, fcfs.MeanWait)
	}
	if easy.Makespan > fcfs.Makespan {
		t.Errorf("easy makespan %v exceeds fcfs %v", easy.Makespan, fcfs.Makespan)
	}
}

func TestRunAccountingSanity(t *testing.T) {
	w := testWorkload(11, 60)
	jobs, err := w.Generate(nil)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for _, p := range []Policy{FCFS{}, EASY{}} {
		for _, al := range []Allocator{Contiguous{}, Scattered{}} {
			res, err := Run(Config{CUs: 2, PerCU: 6, Policy: p, Alloc: al}, jobs)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name(), al.Name(), err)
			}
			if len(res.Jobs) != len(jobs) {
				t.Fatalf("%s/%s: %d outcomes for %d jobs", p.Name(), al.Name(), len(res.Jobs), len(jobs))
			}
			if res.Utilization <= 0 || res.Utilization > 1 {
				t.Errorf("%s/%s: utilization %v", p.Name(), al.Name(), res.Utilization)
			}
			if res.Makespan < res.OracleMakespan {
				t.Errorf("%s/%s: makespan %v beats the oracle bound %v",
					p.Name(), al.Name(), res.Makespan, res.OracleMakespan)
			}
			if res.OracleRatio < 1 {
				t.Errorf("%s/%s: oracle ratio %v < 1", p.Name(), al.Name(), res.OracleRatio)
			}
			if res.MeanSlowdown < 1 {
				t.Errorf("%s/%s: mean bounded slowdown %v < 1", p.Name(), al.Name(), res.MeanSlowdown)
			}
			for _, j := range res.Jobs {
				if j.Start < j.Arrival || j.Finish != j.Start+j.Runtime {
					t.Errorf("%s/%s: job %d lifecycle %v/%v/%v inconsistent",
						p.Name(), al.Name(), j.ID, j.Arrival, j.Start, j.Finish)
				}
				if al.Name() == "contiguous" && j.Nodes <= res.PerCU && j.CUsSpanned != 1 {
					t.Errorf("contiguous: single-CU job %d spans %d CUs", j.ID, j.CUsSpanned)
				}
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	w := testWorkload(23, 40)
	jobs, err := w.Generate(nil)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := Config{CUs: 2, PerCU: 6, Policy: EASY{}, Alloc: Contiguous{}}
	a, err := Run(cfg, jobs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := Run(cfg, jobs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("repeated runs differ")
	}
}

// facilityMeshTrace builds a small all-pairs synthetic trace, the cheap
// stand-in for a captured application schedule.
func facilityMeshTrace(t *testing.T, ranks int) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder("facility-mesh", "test", ranks)
	for r := 0; r < ranks; r++ {
		rec.Compute(r, units.Time(r+1)*units.Microsecond, 0)
		for dst := r + 1; dst < ranks; dst++ {
			rec.Send(r, dst, r*ranks+dst, 64*units.KB, 0)
		}
		for src := 0; src < r; src++ {
			rec.Recv(r, src, src*ranks+r, 64*units.KB, 0)
		}
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatalf("recorder: %v", err)
	}
	return tr
}

func TestTraceJobsAndAssistedAllocator(t *testing.T) {
	tr := facilityMeshTrace(t, 8)
	rt, err := NewTraceRuntime(tr, trace.ReplayConfig{
		Fabric: fabric.NewScaled(1), Profile: ib.OpenMPI(), Policy: transport.Congested(),
	})
	if err != nil {
		t.Fatalf("trace runtime: %v", err)
	}
	defer rt.Close()
	if rt.Reference() <= 0 {
		t.Fatalf("reference makespan %v", rt.Reference())
	}

	jobs := []Job{
		{ID: 0, Class: ClassSweep3D, Nodes: 32, Arrival: 0, Iters: 1, Runtime: 20 * units.Second},
		{ID: 1, Class: ClassTrace, Nodes: 8, Arrival: units.Second, Iters: 3, Runtime: rt.Reference() * 3},
		{ID: 2, Class: ClassTrace, Nodes: 8, Arrival: 2 * units.Second, Iters: 3, Runtime: rt.Reference() * 3},
	}
	run := func(al Allocator) *Result {
		res, err := Run(Config{CUs: 1, PerCU: 180, Policy: EASY{}, Alloc: al, Trace: rt}, jobs)
		if err != nil {
			t.Fatalf("%s: %v", al.Name(), err)
		}
		return res
	}
	plain := run(Contiguous{})
	assisted := run(&Assisted{Seed: 42})

	// The assisted search starts from the linear walk of the same grant,
	// so its trace runtimes can only match or beat the plain allocator's.
	for i := 1; i <= 2; i++ {
		if assisted.Jobs[i].Runtime > plain.Jobs[i].Runtime {
			t.Errorf("assisted trace job %d runtime %v exceeds linear %v",
				i, assisted.Jobs[i].Runtime, plain.Jobs[i].Runtime)
		}
	}

	// Trace runs are as deterministic as everything else.
	again := run(&Assisted{Seed: 42})
	if !reflect.DeepEqual(assisted, again) {
		t.Error("repeated assisted runs differ")
	}
}

func TestRunValidation(t *testing.T) {
	cfg := Config{CUs: 1, PerCU: 4, Policy: FCFS{}, Alloc: Scattered{}}
	if _, err := Run(cfg, []Job{{ID: 0, Nodes: 9, Runtime: units.Second}}); err == nil {
		t.Error("oversized job accepted")
	}
	if _, err := Run(cfg, []Job{{ID: 0, Nodes: 2, Runtime: 0}}); err == nil {
		t.Error("zero-runtime job accepted")
	}
	if _, err := Run(cfg, []Job{{ID: 0, Class: ClassTrace, Nodes: 2, Runtime: units.Second}}); err == nil {
		t.Error("trace job without trace runtime accepted")
	}
	if _, err := Run(Config{Policy: FCFS{}}, nil); err == nil {
		t.Error("nil allocator accepted")
	}
}

// TestClockEnd: a stream or a schedule that would pass the end of the
// int64-picosecond clock (~9.22e6 s) fails with an error instead of
// wrapping to negative times and panicking.
func TestClockEnd(t *testing.T) {
	w := testWorkload(1, 48)
	w.MeanInterarrival = 1e6 * units.Second
	if _, err := w.Generate(nil); err == nil || !strings.Contains(err.Error(), "after the simulated clock ends") {
		t.Errorf("arrivals past the clock: error %v", err)
	}
	// The gap drawn after the last job is never used, so it may not fail.
	w.Jobs = 1
	if _, err := w.Generate(nil); err != nil {
		t.Errorf("one job: %v", err)
	}

	// Two whole-machine jobs of 5e6 s each: the second would start at
	// 5e6 s and finish past the clock's end.
	cfg := Config{CUs: 1, PerCU: 4, Policy: FCFS{}, Alloc: Contiguous{}}
	jobs := []Job{{ID: 0, Nodes: 4, Runtime: 5e6 * units.Second}, {ID: 1, Nodes: 4, Runtime: 5e6 * units.Second}}
	if _, err := Run(cfg, jobs); err == nil || !strings.Contains(err.Error(), "job 1 started at 5e+06s would finish after") {
		t.Errorf("finish past the clock: error %v", err)
	}
	if _, err := Run(cfg, jobs[:1]); err != nil {
		t.Errorf("one job: %v", err)
	}
}

func TestRenderSmoke(t *testing.T) {
	jobs := backfillJobs()
	res, err := Run(Config{CUs: 2, PerCU: 4, Policy: EASY{}, Alloc: Contiguous{}}, jobs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if g := Gantt(res, 40); len(g) == 0 {
		t.Error("empty gantt")
	}
	if o := Occupancy(res, 40); len(o) == 0 {
		t.Error("empty occupancy")
	}
	if s := Summary(res); len(s) == 0 {
		t.Error("empty summary")
	}
}
