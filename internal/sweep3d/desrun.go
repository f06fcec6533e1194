package sweep3d

import (
	"fmt"
	"slices"

	"roadrunner/internal/cml"
	"roadrunner/internal/fabric"
	"roadrunner/internal/sim"
	"roadrunner/internal/trace"
	"roadrunner/internal/units"
)

// DESResult is the outcome of executing the sweep on the discrete-event
// machine: the real numerical result plus the simulated iteration time.
type DESResult struct {
	*Result
	IterationTime units.Time
	// EngineStats snapshots the DES engine counters at completion:
	// events dispatched and the calendar high-water mark.
	EngineStats sim.Stats
}

// RunOnDES executes the real block solver rank-by-rank on the simulated
// machine through the Cell Messaging Layer: px x py SPE ranks placed in
// canonical order (filling sockets, then cells, then nodes), exchanging
// actual boundary payloads whose transfer costs come from the CML
// transport model. It returns the numerical result (bitwise identical to
// the host solvers) and the simulated wall time of one source iteration.
//
// This is the cross-validation tier of DESIGN.md: feasible up to a few
// thousand ranks; the analytic model in scale.go covers the full
// machine.
func RunOnDES(cfg Config, px, py int, cmlCfg cml.Config) (*DESResult, error) {
	return runOnDES(cfg, px, py, cmlCfg, nil)
}

// CaptureDES is RunOnDES with the wavefront schedule recorded: every KBA
// pipeline exchange of the run becomes a trace record (boundary receive,
// block compute, boundary send), so one captured source iteration can be
// replayed over the congested transport under arbitrary rank→node
// placements without re-running the solver. The numerical result and
// simulated iteration time are identical to an uncaptured run; the trace
// carries the problem configuration in its Attrs.
func CaptureDES(cfg Config, px, py int, cmlCfg cml.Config) (*DESResult, *trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if px < 1 || py < 1 {
		return nil, nil, fmt.Errorf("sweep3d: %dx%d rank grid", px, py)
	}
	rec := trace.NewRecorder(fmt.Sprintf("sweep3d-%dx%d", px, py), "sweep3d", px*py)
	rec.SetAttr("grid", fmt.Sprintf("%dx%dx%d", cfg.I, cfg.J, cfg.K))
	rec.SetAttr("mk", fmt.Sprintf("%d", cfg.MK))
	rec.SetAttr("angles", fmt.Sprintf("%d", cfg.Angles))
	rec.SetAttr("px", fmt.Sprintf("%d", px))
	rec.SetAttr("py", fmt.Sprintf("%d", py))
	res, err := runOnDES(cfg, px, py, cmlCfg, rec)
	if err != nil {
		return nil, nil, err
	}
	t, err := rec.Trace()
	if err != nil {
		return nil, nil, err
	}
	return res, t, nil
}

func runOnDES(cfg Config, px, py int, cmlCfg cml.Config, rec *trace.Recorder) (*DESResult, error) {
	d, err := newDESRun(cfg, px, py, cmlCfg, rec)
	if err != nil {
		return nil, err
	}
	return d.run()
}

// desRun is one DES execution: the engine, the CML world, and one
// event-driven walker per SPE rank.
type desRun struct {
	eng       *sim.Engine
	cfg       Config
	prob      Problem
	px, py    int
	ranks     []walker
	states    []*LocalState
	rec       *trace.Recorder
	octs      [Octants]Dir
	blockTime units.Time // calibrated SPE compute time of one block step
	done      int        // ranks whose sweep ended
	finish    units.Time // the last rank's end
	deliverFn func(*cml.Message)
}

// walker steps one rank through its KBA program as an event-driven state
// machine. Per octant and K block it receives x and y from upstream,
// sweeps the block, waits out its compute time, then sends x and y
// downstream (or tallies them as leakage at the domain edge). A walk
// stops at a recv with no match (the next delivery to the rank steps it
// at delay 0, whether or not it matches), at the compute delay, and
// while a send's chain runs (its end continues the walk in the same
// event). Those stops fix the run's calendar, which
// testdata/des_golden.txt pins.
type walker struct {
	d       *desRun
	id      int
	rank    *cml.Rank
	s       *LocalState
	oi, kb  int
	up, dn  [2]int // x and y neighbours in this octant; -1 at the domain edge
	pc      uint8
	in, out [2][]float64   // the block's x and y boundaries
	queue   []*cml.Message // delivered, not yet received; arrival order
	waiting bool           // blocked in the recv at pc
	runFn   func()
}

// Walker program counter: where the walk resumes within a block step.
// Each x stage is followed by its y stage.
const (
	pcRecvX = iota // receive the x boundary from upstream
	pcRecvY
	pcSweep // sweep the block and wait out its compute time
	pcSendX // compute done: send x downstream
	pcSentX // x delivered
	pcSendY
	pcSentY
	pcNext // on to the next block
	pcDone // the sweep has ended
)

// faces names the boundary dimensions for leakage accounting.
var faces = [2]string{"x", "y"}

func newDESRun(cfg Config, px, py int, cmlCfg cml.Config, rec *trace.Recorder) (*desRun, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if px < 1 || py < 1 {
		return nil, fmt.Errorf("sweep3d: %dx%d rank grid", px, py)
	}
	nRanks := px * py
	eng := sim.NewEngine()
	fab := fabric.New()
	world := cml.NewWorld(eng, fab, cmlCfg)
	nodes := (nRanks + cml.RanksPerNode - 1) / cml.RanksPerNode
	if nodes > fab.Nodes() {
		return nil, fmt.Errorf("sweep3d: %d ranks exceed the machine", nRanks)
	}
	for n := 0; n < nodes; n++ {
		world.AddNodeRanks(fabric.FromGlobal(n))
	}
	d := &desRun{
		eng:  eng,
		cfg:  cfg,
		prob: Problem{NX: cfg.I * px, NY: cfg.J * py, NZ: cfg.K, Angles: cfg.Angles, SigT: 0.75, Q: 1.0},
		px:   px, py: py,
		ranks:  make([]walker, nRanks),
		states: make([]*LocalState, nRanks),
		rec:    rec,
		octs:   OctantOrder(),
		// The calibrated SPE compute cost makes the DES time comparable
		// with the analytic model.
		blockTime: units.Time(cfg.BlockUpdates()) * speScalePerUpdate(cfg),
	}
	d.deliverFn = d.deliver
	// Every rank's first step runs at delay 0, in rank order.
	for id := range d.ranks {
		w := &d.ranks[id]
		w.d, w.id, w.rank = d, id, world.Rank(id)
		w.s = NewLocalState(cfg, d.prob, px, py, id%px, id/px)
		d.states[id] = w.s
		w.runFn = w.run
		w.octant(0)
		eng.Schedule(0, w.runFn)
	}
	return d, nil
}

// run executes the sweep and merges the ranks' results. A calendar that
// empties with ranks unfinished is a *sim.DeadlockError naming each rank
// left in a recv.
func (d *desRun) run() (*DESResult, error) {
	err := d.eng.Run()
	if err == nil && d.done < len(d.ranks) {
		e := &sim.DeadlockError{Time: d.eng.Now()}
		for i := range d.ranks {
			if w := &d.ranks[i]; w.waiting {
				dim := int(w.pc - pcRecvX)
				e.Procs = append(e.Procs, fmt.Sprintf("rank%d (recv from %d tag %d)", w.id, w.up[dim], tag(w.oi, w.kb, dim)))
			}
		}
		err = e
	}
	if err != nil {
		return nil, fmt.Errorf("sweep3d: DES run: %w", err)
	}
	return &DESResult{
		Result:        MergeResults(d.cfg, d.prob, d.px, d.py, d.states),
		IterationTime: d.finish,
		EngineStats:   d.eng.Stats(),
	}, nil
}

// deliver queues a message at its rank. A rank blocked in a recv steps
// at once to re-match, whether or not the message is the one it waits
// for.
func (d *desRun) deliver(m *cml.Message) {
	w := &d.ranks[m.Dst]
	w.queue = append(w.queue, m)
	if w.waiting {
		w.waiting = false
		d.eng.Schedule(0, w.runFn)
	}
}

// tag encodes (octant, block, dimension) as a message tag.
func tag(oi, kb, dim int) int { return (oi*4096+kb)*2 + dim }

// octant enters octant oi: the z-face state restarts, and the x and y
// neighbours become the octant's upstream and downstream ranks.
func (w *walker) octant(oi int) {
	d, oct := w.d, w.d.octs[oi]
	at := func(x, y int) int {
		if x < 0 || x >= d.px || y < 0 || y >= d.py {
			return -1
		}
		return y*d.px + x
	}
	i, j := w.s.PXi, w.s.PYi
	w.oi = oi
	w.up = [2]int{at(upstreamRank(i, oct.SI), j), at(i, upstreamRank(j, oct.SJ))}
	w.dn = [2]int{at(downstreamRank(i, oct.SI), j), at(i, downstreamRank(j, oct.SJ))}
	w.s.StartOctant()
}

// take receives dimension dim's boundary into in[dim]: nothing at the
// domain edge, else the first queued message from upstream with the
// block's tag, in arrival order. With no match the walker waits in the
// recv and take reports false.
func (w *walker) take(dim int) bool {
	src := w.up[dim]
	if src < 0 {
		return true
	}
	tg := tag(w.oi, w.kb, dim)
	for i, m := range w.queue {
		if m.Src == src && m.Tag == tg {
			w.queue = slices.Delete(w.queue, i, i+1)
			w.in[dim] = m.Data
			if rec := w.d.rec; rec != nil {
				rec.Recv(w.id, src, tg, m.Size, w.d.eng.Now())
			}
			return true
		}
	}
	w.waiting = true
	return false
}

// run walks the rank's program from pc until it must wait: for a
// message, the compute delay or a send's chain. It is the rank's
// calendar event and the continuation its send chains end with.
func (w *walker) run() {
	d := w.d
	for {
		switch w.pc {
		case pcRecvX, pcRecvY:
			if !w.take(int(w.pc - pcRecvX)) {
				return
			}
			w.pc++
		case pcSweep:
			w.out[0], w.out[1] = w.s.BlockSweep(d.octs[w.oi], w.kb, w.in[0], w.in[1])
			w.in = [2][]float64{}
			w.pc = pcSendX
			d.eng.Schedule(d.blockTime, w.runFn)
			return
		case pcSendX, pcSendY:
			dim := int(w.pc-pcSendX) / 2
			if dim == 0 && d.rec != nil {
				d.rec.Compute(w.id, d.blockTime, d.eng.Now())
			}
			if dst := w.dn[dim]; dst >= 0 {
				w.pc++ // to the sent stage
				w.rank.StartSend(dst, tag(w.oi, w.kb, dim), w.out[dim], d.deliverFn, w.runFn)
				return
			}
			w.s.AccumulateEdgeLeakage(faces[dim], w.out[dim])
			w.pc += 2 // past the sent stage
		case pcSentX, pcSentY:
			dim := int(w.pc-pcSentX) / 2
			if d.rec != nil {
				d.rec.Send(w.id, w.dn[dim], tag(w.oi, w.kb, dim), units.Size(8*len(w.out[dim])), d.eng.Now())
			}
			w.pc++
		case pcNext:
			w.pc = pcRecvX
			if w.kb++; w.kb < d.cfg.KBlocks() {
				break
			}
			w.s.FinishOctant()
			w.kb = 0
			if w.oi+1 < Octants {
				w.octant(w.oi + 1)
				break
			}
			w.pc = pcDone
		case pcDone:
			d.finish = max(d.finish, d.eng.Now())
			d.done++
			return
		}
	}
}
