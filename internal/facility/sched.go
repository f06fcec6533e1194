package facility

import (
	"fmt"
	"math"
	"sort"

	"roadrunner/internal/fabric"
	"roadrunner/internal/params"
	"roadrunner/internal/units"
)

// Config drives one facility run: the machine shape, the scheduling
// policy, the node allocator, and the trace runtime backing ClassTrace
// jobs (nil when the mix has none).
type Config struct {
	// CUs and PerCU size the machine; zero values take the as-built
	// 17 x 180.
	CUs    int
	PerCU  int
	Policy Policy
	Alloc  Allocator
	Trace  *TraceRuntime
}

// QueuedJob is a policy's view of one waiting job.
type QueuedJob struct {
	ID      int
	Nodes   int
	Runtime units.Time // the scheduler's estimate
}

// RunningJob is a policy's view of one started job.
type RunningJob struct {
	Nodes  int
	Finish units.Time // estimated finish (start + estimate)
}

// Policy decides which queued jobs start at each scheduling point. A
// policy may only start jobs through Sched.TryStart, so it can never
// bypass the allocator or the queue's bookkeeping.
type Policy interface {
	Name() string
	Schedule(s *Sched)
}

// Sched is the scheduling context a Policy operates on: a snapshot view
// of the queue and the running set, plus the one mutating call.
type Sched struct {
	sim *simulator
}

// Now returns the current simulation time.
func (s *Sched) Now() units.Time { return s.sim.now }

// FreeNodes returns the machine-wide free node count.
func (s *Sched) FreeNodes() int { return s.sim.m.Free() }

// Queue returns the waiting jobs in arrival order. The slice is rebuilt
// per call: a TryStart invalidates previously returned slices.
func (s *Sched) Queue() []QueuedJob {
	out := make([]QueuedJob, len(s.sim.queue))
	for i, j := range s.sim.queue {
		out[i] = QueuedJob{ID: j.Job.ID, Nodes: j.Job.Nodes, Runtime: j.Job.Runtime}
	}
	return out
}

// Running returns the running jobs with their estimated finish times,
// in start order.
func (s *Sched) Running() []RunningJob {
	out := make([]RunningJob, len(s.sim.running))
	for i, j := range s.sim.running {
		out[i] = RunningJob{Nodes: j.Job.Nodes, Finish: j.start + j.Job.Runtime}
	}
	return out
}

// TryStart attempts to start the i-th queued job now. It returns false
// when the allocator declines (not enough nodes, or fragmentation the
// allocator refuses to absorb); on success the job leaves the queue and
// its completion is scheduled.
func (s *Sched) TryStart(i int) bool {
	return s.sim.tryStart(i)
}

// FCFS is strict first-come-first-served: the queue head starts as soon
// as the allocator grants it; nothing overtakes.
type FCFS struct{}

// Name identifies the policy in reports.
func (FCFS) Name() string { return "fcfs" }

// Schedule starts head jobs while they fit.
func (FCFS) Schedule(s *Sched) {
	for len(s.sim.queue) > 0 && s.TryStart(0) {
	}
}

// EASY is EASY-backfill: FCFS with a reservation for the blocked head —
// later jobs may overtake only when they cannot delay it, either by
// finishing before the head's shadow time or by fitting in the extra
// nodes the reservation leaves unused. Estimates are exact in this
// simulator for the model classes, so the reservation is never violated
// by them; trace jobs can run past their estimate when the granted
// mapping is worse than the reference, the same hazard real EASY
// accepts from user estimates.
type EASY struct{}

// Name identifies the policy in reports.
func (EASY) Name() string { return "easy" }

// Schedule runs the FCFS pass, then backfills behind the blocked head.
func (EASY) Schedule(s *Sched) {
	for len(s.sim.queue) > 0 && s.TryStart(0) {
	}
	q := s.Queue()
	if len(q) == 0 {
		return
	}
	shadow, extra := reservation(s, q[0].Nodes)
	for i := 1; i < len(q); {
		j := q[i]
		if j.Nodes <= s.FreeNodes() &&
			(s.Now()+j.Runtime <= shadow || j.Nodes <= extra) &&
			s.TryStart(i) {
			q = s.Queue()
			shadow, extra = reservation(s, q[0].Nodes)
			continue // the next candidate shifted into slot i
		}
		i++
	}
}

// reservation computes the head's shadow time (when enough nodes will
// have drained for it to start, by node count) and the extra nodes that
// start leaves free. When the head is blocked by fragmentation rather
// than capacity, the shadow is now and only the extra-nodes rule
// admits backfill — conservative, since a node-count reservation cannot
// see CU shapes.
func reservation(s *Sched, headNodes int) (shadow units.Time, extra int) {
	free := s.FreeNodes()
	if free >= headNodes {
		return s.Now(), free - headNodes
	}
	running := s.Running()
	sort.Slice(running, func(a, b int) bool { return running[a].Finish < running[b].Finish })
	for _, r := range running {
		free += r.Nodes
		if free >= headNodes {
			return r.Finish, free - headNodes
		}
	}
	// Unreachable for validated jobs (every job fits the empty machine),
	// but never admit unlimited backfill on a bookkeeping surprise.
	return units.Time(math.MaxInt64), 0
}

// NewPolicy resolves a policy by name ("fcfs" or "easy"), the CLI and
// scenario entry point.
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "fcfs":
		return FCFS{}, nil
	case "easy":
		return EASY{}, nil
	}
	return nil, fmt.Errorf("facility: unknown policy %q (want fcfs or easy)", name)
}

// ---------------------------------------------------------------------------
// The discrete-event loop.
// ---------------------------------------------------------------------------

// Event kinds, completion first: nodes freed at time t are available to
// a job arriving at t.
const (
	evComplete = iota
	evArrive
)

type event struct {
	at   units.Time
	kind int
	seq  int // tie-break: schedule order
	job  *runJob
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// eventHeap is a plain binary min-heap; the facility's calendar is far
// too small to need internal/sim's radix calendar.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && eventLess((*h)[l], (*h)[m]) {
			m = l
		}
		if r < last && eventLess((*h)[r], (*h)[m]) {
			m = r
		}
		if m == i {
			break
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
	return top
}

// runJob is a job's full lifecycle state.
type runJob struct {
	Job        Job
	start      units.Time
	finish     units.Time
	actual     units.Time // actual runtime (differs from estimate for trace jobs)
	grant      []fabric.NodeID
	backfilled bool
	started    bool
	done       bool
}

type simulator struct {
	cfg     Config
	m       *NodeMap
	now     units.Time
	queue   []*runJob // arrival order
	running []*runJob // start order
	seq     int
	heap    eventHeap
	err     error // first start-time failure (trace evaluation)

	// Accounting integrals, float64 node-seconds / seconds: 3,060 nodes
	// times a multi-hour horizon overflows int64 picosecond products.
	lastT     units.Time
	busyInt   float64 // ∫ used(t) dt, node-seconds
	fragInt   float64 // ∫ frag(t) dt, seconds
	timeline  []OccupancySample
	completed []*runJob
}

// OccupancySample is one point of the occupancy/fragmentation timeline,
// recorded after every state change.
type OccupancySample struct {
	Time units.Time
	Used int
	Frag float64
}

// JobOutcome is one job's accounted lifecycle.
type JobOutcome struct {
	ID         int
	Class      string
	Nodes      int
	CUsSpanned int
	Arrival    units.Time
	Start      units.Time
	Finish     units.Time
	Wait       units.Time
	Runtime    units.Time // actual
	Estimate   units.Time
	Slowdown   float64 // bounded slowdown, tau = 10s
	Backfilled bool
}

// Result is one facility run's accounting.
type Result struct {
	Policy string
	Alloc  string
	CUs    int
	PerCU  int
	Jobs   []JobOutcome
	// Makespan is the last completion time.
	Makespan units.Time
	// Utilization is delivered node-time over machine node-time across
	// the makespan.
	Utilization float64
	MeanWait    units.Time
	P95Wait     units.Time
	// MeanSlowdown is the mean bounded slowdown (tau = 10s).
	MeanSlowdown float64
	// MeanFragmentation is the external-fragmentation metric integrated
	// over the makespan.
	MeanFragmentation float64
	// OracleMakespan is the packer lower bound: no schedule can beat
	// max(total work / machine, latest arrival+runtime).
	OracleMakespan units.Time
	// OracleRatio is Makespan over OracleMakespan (>= 1).
	OracleRatio float64
	// Backfilled counts jobs that overtook the queue head.
	Backfilled int
	Timeline   []OccupancySample
}

// BoundedSlowdownTau is the runtime floor of the bounded-slowdown
// metric: below it, slowdown measures wait against tau, not against a
// vanishing runtime.
const BoundedSlowdownTau = 10 * units.Second

// Run drives the machine through the job stream and returns the
// accounting. It is a pure function of its arguments: same jobs, same
// config, same Result.
func Run(cfg Config, jobs []Job) (*Result, error) {
	if cfg.CUs == 0 {
		cfg.CUs = FullMachineCUs
	}
	if cfg.PerCU == 0 {
		cfg.PerCU = params.NodesPerCU
	}
	if cfg.Policy == nil || cfg.Alloc == nil {
		return nil, fmt.Errorf("facility: nil policy or allocator")
	}
	s := &simulator{cfg: cfg, m: NewNodeMap(cfg.CUs, cfg.PerCU)}
	for i := range jobs {
		j := &jobs[i]
		if j.Nodes < 1 || j.Nodes > s.m.Nodes() {
			return nil, fmt.Errorf("facility: job %d requests %d nodes on a %d-node machine",
				j.ID, j.Nodes, s.m.Nodes())
		}
		if j.Runtime <= 0 {
			return nil, fmt.Errorf("facility: job %d has runtime %v", j.ID, j.Runtime)
		}
		if j.Class == ClassTrace {
			if cfg.Trace == nil {
				return nil, fmt.Errorf("facility: job %d is a trace job but no trace runtime is configured", j.ID)
			}
			if j.Nodes != cfg.Trace.Ranks() {
				return nil, fmt.Errorf("facility: trace job %d requests %d nodes for a %d-rank trace",
					j.ID, j.Nodes, cfg.Trace.Ranks())
			}
		}
		s.heap.push(event{at: j.Arrival, kind: evArrive, seq: s.seq, job: &runJob{Job: *j}})
		s.seq++
	}

	sched := &Sched{sim: s}
	for len(s.heap) > 0 {
		e := s.heap.pop()
		s.advance(e.at)
		switch e.kind {
		case evArrive:
			s.queue = append(s.queue, e.job)
		case evComplete:
			s.complete(e.job)
		}
		cfg.Policy.Schedule(sched)
		if s.err != nil {
			return nil, s.err
		}
		s.timeline = append(s.timeline, OccupancySample{
			Time: s.now, Used: s.m.Nodes() - s.m.Free(), Frag: s.m.Fragmentation(),
		})
	}
	if len(s.queue) != 0 {
		return nil, fmt.Errorf("facility: %d jobs still queued at end of stream", len(s.queue))
	}
	if s.m.Free() != s.m.Nodes() {
		return nil, fmt.Errorf("facility: %d nodes still allocated after all jobs completed",
			s.m.Nodes()-s.m.Free())
	}
	return s.result(jobs)
}

// advance integrates the occupancy and fragmentation up to t.
func (s *simulator) advance(t units.Time) {
	if t < s.now {
		panic(fmt.Sprintf("facility: time going backwards: %v -> %v", s.now, t))
	}
	dt := (t - s.lastT).Seconds()
	used := float64(s.m.Nodes() - s.m.Free())
	s.busyInt += used * dt
	s.fragInt += s.m.Fragmentation() * dt
	s.lastT = t
	s.now = t
}

// tryStart allocates and starts the i-th queued job; see Sched.TryStart.
func (s *simulator) tryStart(i int) bool {
	if s.err != nil {
		return false
	}
	j := s.queue[i]
	grant, ok := s.cfg.Alloc.Alloc(s.m, j.Job.Nodes)
	if !ok {
		return false
	}
	actual, err := s.actualRuntime(j, grant)
	if err == nil && actual > units.Time(math.MaxInt64)-s.now {
		err = fmt.Errorf("facility: job %d started at %v would finish after the simulated clock ends at %v",
			j.Job.ID, s.now, units.Time(math.MaxInt64))
	}
	if err != nil {
		// Roll back so the run fails cleanly instead of leaking nodes.
		if rerr := s.m.Release(grant); rerr != nil {
			err = fmt.Errorf("%w (and release failed: %v)", err, rerr)
		}
		s.err = err
		return false
	}
	j.started = true
	j.start = s.now
	j.actual = actual
	j.finish = s.now + actual
	j.grant = grant
	j.backfilled = i > 0
	s.queue = append(s.queue[:i], s.queue[i+1:]...)
	s.running = append(s.running, j)
	s.heap.push(event{at: j.finish, kind: evComplete, seq: s.seq, job: j})
	s.seq++
	return true
}

// actualRuntime prices a started job: model classes run exactly their
// estimate; trace jobs replay under the granted mapping — assisted
// allocators search it, everyone else walks the grant linearly.
func (s *simulator) actualRuntime(j *runJob, grant []fabric.NodeID) (units.Time, error) {
	if j.Job.Class != ClassTrace {
		return j.Job.Runtime, nil
	}
	rt := s.cfg.Trace
	if a, ok := s.cfg.Alloc.(*Assisted); ok {
		_, perIter, err := a.MapRanks(rt, j.Job.ID, grant)
		if err != nil {
			return 0, err
		}
		return perIter * units.Time(j.Job.Iters), nil
	}
	perIter, err := rt.Evaluate(linearMapping(grant))
	if err != nil {
		return 0, fmt.Errorf("facility: trace job %d: %w", j.Job.ID, err)
	}
	return perIter * units.Time(j.Job.Iters), nil
}

// complete frees a finished job's nodes.
func (s *simulator) complete(j *runJob) {
	if err := s.m.Release(j.grant); err != nil {
		panic(err) // grants are exact by construction; this is a code bug
	}
	j.done = true
	for i, r := range s.running {
		if r == j {
			s.running = append(s.running[:i], s.running[i+1:]...)
			break
		}
	}
	s.completed = append(s.completed, j)
}

// result assembles the accounting.
func (s *simulator) result(jobs []Job) (*Result, error) {
	res := &Result{
		Policy: s.cfg.Policy.Name(),
		Alloc:  s.cfg.Alloc.Name(),
		CUs:    s.m.CUs(),
		PerCU:  s.m.PerCU(),
		Jobs:   make([]JobOutcome, 0, len(s.completed)),
	}
	waits := make([]units.Time, 0, len(s.completed))
	var slow, work float64
	var latestOracle units.Time
	for _, j := range s.completed {
		wait := j.start - j.Job.Arrival
		denom := j.actual
		if denom < BoundedSlowdownTau {
			denom = BoundedSlowdownTau
		}
		sd := float64(wait+j.actual) / float64(denom)
		if sd < 1 {
			sd = 1
		}
		cus := cusSpanned(j.grant)
		res.Jobs = append(res.Jobs, JobOutcome{
			ID: j.Job.ID, Class: j.Job.Class.String(), Nodes: j.Job.Nodes,
			CUsSpanned: cus,
			Arrival:    j.Job.Arrival, Start: j.start, Finish: j.finish,
			Wait: wait, Runtime: j.actual, Estimate: j.Job.Runtime,
			Slowdown: sd, Backfilled: j.backfilled,
		})
		if j.finish > res.Makespan {
			res.Makespan = j.finish
		}
		waits = append(waits, wait)
		slow += sd
		work += float64(j.Job.Nodes) * (j.actual).Seconds()
		if j.backfilled {
			res.Backfilled++
		}
		if end := j.Job.Arrival + j.actual; end > latestOracle {
			latestOracle = end
		}
	}
	// Completion events pop in (time, seq) order, so Jobs is sorted by
	// finish; re-sort by ID for a stable, human-scannable table.
	sort.Slice(res.Jobs, func(a, b int) bool { return res.Jobs[a].ID < res.Jobs[b].ID })
	n := len(waits)
	if n == 0 {
		return nil, fmt.Errorf("facility: no jobs completed")
	}
	res.MeanWait = meanTime(waits)
	sort.Slice(waits, func(a, b int) bool { return waits[a] < waits[b] })
	idx := int(math.Ceil(0.95*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	res.P95Wait = waits[idx]
	res.MeanSlowdown = slow / float64(n)
	if res.Makespan > 0 {
		span := res.Makespan.Seconds()
		res.Utilization = s.busyInt / (float64(s.m.Nodes()) * span)
		res.MeanFragmentation = s.fragInt / span
	}
	packed := units.FromSeconds(work / float64(s.m.Nodes()))
	res.OracleMakespan = packed
	if latestOracle > res.OracleMakespan {
		res.OracleMakespan = latestOracle
	}
	if res.OracleMakespan > 0 {
		res.OracleRatio = float64(res.Makespan) / float64(res.OracleMakespan)
	}
	res.Timeline = s.timeline
	return res, nil
}

// meanTime returns the truncated mean of non-negative times. It sums the
// quotients and the remainders by the count separately, so a long
// backlog's waits — each up to the clock's int64 range — cannot
// overflow the sum; the result equals sum/n exactly whenever the sum
// fits.
func meanTime(ts []units.Time) units.Time {
	n := units.Time(len(ts))
	var quo, rem units.Time
	for _, t := range ts {
		quo += t / n
		rem += t % n
	}
	return quo + rem/n
}

// cusSpanned counts the distinct CUs of a grant.
func cusSpanned(grant []fabric.NodeID) int {
	seen := make([]bool, params.MaxCUs+1)
	n := 0
	for _, g := range grant {
		if g.CU < len(seen) && !seen[g.CU] {
			seen[g.CU] = true
			n++
		}
	}
	return n
}
