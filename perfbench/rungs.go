package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"roadrunner/internal/collectives"
	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/placement"
	"roadrunner/internal/scenario"
	"roadrunner/internal/sim"
	"roadrunner/internal/surrogate"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

type endpoint = transport.Endpoint

// canonical is the Sweep3D trace placement-search and the serve rung run
// on (64 ranks, 9,216 records), with the objective they share: the
// comm-only schedule replayed on the congested full machine.
type canonical struct {
	tr     *trace.Trace
	jsonl  []byte
	cfg    trace.ReplayConfig
	starts []placement.Start
}

func captureCanonical() (*canonical, error) {
	tr, _, err := scenario.CaptureSweep3DTrace()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		return nil, err
	}
	fab, err := fabric.NewTopology(fabric.DefaultTopology)
	if err != nil {
		return nil, err
	}
	c := &canonical{
		tr:    tr,
		jsonl: buf.Bytes(),
		cfg: trace.ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(),
			Policy: transport.Congested(), SkipCompute: true},
	}
	for _, name := range scenario.TraceReplayPlacementNames {
		places, err := scenario.TraceReplayPlaces(name, fab, tr.Meta.Ranks)
		if err != nil {
			return nil, err
		}
		c.starts = append(c.starts, placement.Start{Name: name, Places: places})
	}
	return c, nil
}

// nodesAsPlaces puts rank r on global node nodes[r], near core.
func nodesAsPlaces(nodes []int) []endpoint {
	out := make([]endpoint, len(nodes))
	for r, n := range nodes {
		out[r] = endpoint{Node: fabric.FromGlobal(n), Core: 1}
	}
	return out
}

// sendPairs lists the node pair of every inter-node send of the trace
// under each placement: the routes a replay of those placements walks.
func sendPairs(tr *trace.Trace, places [][]endpoint) [][2]fabric.NodeID {
	var out [][2]fabric.NodeID
	for _, pl := range places {
		for _, r := range tr.Records {
			if r.Kind != trace.KindSend {
				continue
			}
			a, b := pl[r.Rank].Node, pl[r.Peer].Node
			if a != b {
				out = append(out, [2]fabric.NodeID{a, b})
			}
		}
	}
	return out
}

// sendSize is the payload of the trace's first send.
func sendSize(tr *trace.Trace) units.Size {
	for _, r := range tr.Records {
		if r.Kind == trace.KindSend {
			return r.Size
		}
	}
	return 0
}

// ladderInput is what the rungs run on: the op's own node pairs,
// placements and op, plus the canonical trace.
type ladderInput struct {
	seed   int64
	fab    *fabric.System
	pairs  [][2]fabric.NodeID
	size   units.Size
	canon  *canonical
	places [][]endpoint
	op     func() error
	opReps int
}

// ladder runs every rung: each calls one layer's public function in
// isolation and reports its host cost per call. The serve rung's
// submissions count as ops of res.
func ladder(in ladderInput, res *runResult) (map[string]float64, error) {
	out := map[string]float64{
		"sim.dispatch_ns": dispatchNs(),
		"fabric.route_ns": routeNs(in.fab, in.pairs),
	}
	var err error
	if out["transport.transfer_ns"], err = transferNs(in.fab, in.pairs, in.size); err != nil {
		return nil, err
	}
	if out["trace.decode_ms"], err = decodeMs(in.canon.jsonl); err != nil {
		return nil, err
	}
	if out["trace.evaluate_ms"], err = evaluateMs(in.canon, in.places); err != nil {
		return nil, err
	}
	if err := surrogateRungs(in.canon, in.places, in.seed, out); err != nil {
		return nil, err
	}
	if out["sim.gomaxprocs2_ratio"], err = gomaxprocs2Ratio(in.op, in.opReps); err != nil {
		return nil, err
	}
	if out["sim.cluster_speedup_2w"], err = clusterSpeedup(in.seed); err != nil {
		return nil, err
	}
	if err := serveRung(in.canon, in.seed, res, out); err != nil {
		return nil, err
	}
	return out, nil
}

var sink int // keeps rung results alive past the compiler

// dispatchNs is the bare event loop: 360 self-rescheduling event chains
// (the collective's rank count) on one engine, no procs.
func dispatchNs() float64 {
	const chains, depth = collNodes, 500
	rng := rand.New(rand.NewSource(1))
	delays := make([]units.Time, 1024)
	for i := range delays {
		delays[i] = units.Time(1+rng.Intn(1000)) * units.Nanosecond
	}
	var samples []float64
	for rep := 0; rep < 5; rep++ {
		e := sim.NewEngine()
		for c := 0; c < chains; c++ {
			left := depth
			var fn func()
			fn = func() {
				left--
				if left > 0 {
					e.Schedule(delays[(c*7+left)&1023], fn)
				}
			}
			e.Schedule(delays[c&1023], fn)
		}
		t0 := time.Now()
		if err := e.Run(); err != nil {
			panic(err) // an event loop without procs cannot deadlock
		}
		el := time.Since(t0)
		samples = append(samples, float64(el.Nanoseconds())/float64(e.Stats().Dispatched))
		e.Close()
	}
	return medianFloat(samples)
}

// routeNs routes every pair once per pass with System.RouteInto.
func routeNs(fab *fabric.System, pairs [][2]fabric.NodeID) float64 {
	if len(pairs) == 0 {
		return 0
	}
	buf := make([]fabric.Link, 0, 64)
	var samples []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for _, p := range pairs {
			buf = fab.RouteInto(buf[:0], p[0], p[1])
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(len(pairs)))
	}
	sink += len(buf)
	return medianFloat(samples)
}

// transferNs runs uncontended Net.Transfers on an idle engine: one
// sender proc moving size bytes over up to 20,000 of the pairs in turn.
func transferNs(fab *fabric.System, pairs [][2]fabric.NodeID, size units.Size) (float64, error) {
	const most = 20000
	sel := pairs
	if len(sel) > most {
		sel = make([][2]fabric.NodeID, 0, most)
		for i := 0; i < most; i++ {
			sel = append(sel, pairs[i*len(pairs)/most])
		}
	}
	if len(sel) == 0 {
		return 0, nil
	}
	var samples []float64
	for rep := 0; rep < 3; rep++ {
		eng := sim.NewEngine()
		net := transport.New(eng, fab, ib.OpenMPI(), transport.Congested())
		delivered := 0
		eng.Spawn("sender", func(p *sim.Proc) {
			for _, pr := range sel {
				net.Transfer(p, endpoint{Node: pr[0], Core: 1}, endpoint{Node: pr[1], Core: 1}, size,
					func() { delivered++ })
			}
		})
		t0 := time.Now()
		err := eng.Run()
		el := time.Since(t0)
		eng.Close()
		if err != nil {
			return 0, fmt.Errorf("transfer rung: %w", err)
		}
		if delivered != len(sel) {
			return 0, fmt.Errorf("transfer rung: %d of %d transfers delivered", delivered, len(sel))
		}
		samples = append(samples, float64(el.Nanoseconds())/float64(len(sel)))
	}
	return medianFloat(samples), nil
}

// decodeMs decodes the canonical trace's JSONL, as the server does for
// every new submission.
func decodeMs(jsonl []byte) (float64, error) {
	var samples []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		tr, err := trace.Decode(bytes.NewReader(jsonl))
		if err != nil {
			return 0, err
		}
		samples = append(samples, ms(time.Since(t0)))
		sink += len(tr.Records)
	}
	return medianFloat(samples), nil
}

// evaluateMs replays the op's placements on one warm Evaluator.
func evaluateMs(c *canonical, places [][]endpoint) (float64, error) {
	ev, err := trace.NewEvaluator(c.tr, c.cfg)
	if err != nil {
		return 0, err
	}
	defer ev.Close()
	var samples []float64
	for rep := 0; rep < 2; rep++ {
		for _, pl := range places {
			t0 := time.Now()
			if _, err := ev.Evaluate(pl); err != nil {
				return 0, err
			}
			samples = append(samples, ms(time.Since(t0)))
		}
	}
	return medianFloat(samples), nil
}

// perturb swaps k seeded random rank pairs of base.
func perturb(base []endpoint, seed int64, k int) []endpoint {
	rng := rand.New(rand.NewSource(seed))
	out := append([]endpoint(nil), base...)
	for i := 0; i < k; i++ {
		a, b := rng.Intn(len(out)), rng.Intn(len(out))
		out[a], out[b] = out[b], out[a]
	}
	return out
}

// surrogateRungs measures the model build (rebuilt inside every
// Optimize), the price of the op's placements, and the rank correlation
// of Price against Evaluate on a seeded holdout after calibrating on
// the starts plus seeded perturbations of them.
func surrogateRungs(c *canonical, places [][]endpoint, seed int64, out map[string]float64) error {
	var compile []float64
	var m *surrogate.Model
	for rep := 0; rep < 3; rep++ {
		if m != nil {
			m.Close()
		}
		t0 := time.Now()
		var err error
		if m, err = surrogate.NewReplay(c.tr, c.cfg); err != nil {
			return err
		}
		compile = append(compile, ms(time.Since(t0)))
	}
	defer m.Close()
	out["surrogate.compile_ms"] = medianFloat(compile)

	var price []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for _, pl := range places {
			sink += int(m.Price(pl))
		}
		price = append(price, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(places)))
	}
	out["surrogate.price_us"] = medianFloat(price)

	ev, err := trace.NewEvaluator(c.tr, c.cfg)
	if err != nil {
		return err
	}
	defer ev.Close()
	replay := func(pl []endpoint) (units.Time, error) {
		r, err := ev.Evaluate(pl)
		if err != nil {
			return 0, err
		}
		return r.Time, nil
	}
	var anchors [][]endpoint
	for i := 0; i < 12; i++ {
		base := c.starts[i%len(c.starts)].Places
		if i < len(c.starts) {
			anchors = append(anchors, base)
		} else {
			anchors = append(anchors, perturb(base, mix(seed, 3000+i), 4))
		}
	}
	times := make([]units.Time, len(anchors))
	for i, a := range anchors {
		if times[i], err = replay(a); err != nil {
			return err
		}
	}
	if err := m.Calibrate(anchors, times); err != nil {
		return err
	}
	var des, sur []units.Time
	for i := 0; i < 16; i++ {
		pl := perturb(c.starts[i%len(c.starts)].Places, mix(seed, 4000+i), 2+i%7)
		t, err := replay(pl)
		if err != nil {
			return err
		}
		des = append(des, t)
		sur = append(sur, m.Price(pl))
	}
	out["surrogate.spearman"] = surrogate.Spearman(sur, des)
	return nil
}

// gomaxprocs2Ratio times the op at GOMAXPROCS 2 and 1, alternating
// which runs first, and returns the ratio of the medians (above 1: the
// single-threaded op is slower with a second P).
func gomaxprocs2Ratio(op func() error, reps int) (float64, error) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var t1, t2 []float64
	for r := 0; r < reps; r++ {
		order := []int{1, 2}
		if r%2 == 1 {
			order = []int{2, 1}
		}
		for _, procs := range order {
			runtime.GOMAXPROCS(procs)
			t0 := time.Now()
			if err := op(); err != nil {
				return 0, err
			}
			el := float64(time.Since(t0))
			if procs == 1 {
				t1 = append(t1, el)
			} else {
				t2 = append(t2, el)
			}
		}
	}
	return medianFloat(t2) / medianFloat(t1), nil
}

// clusterSpeedup runs collectives.RunMany over the collective
// workload's first two inputs on one and on two workers, at GOMAXPROCS
// equal to the host's core count, and returns the one-worker time over
// the two-worker time. The results must be identical at both worker
// counts.
func clusterSpeedup(seed int64) (float64, error) {
	reqs := make([]collectives.Request, 2)
	for i := range reqs {
		cfg, err := collConfig(collPerm(seed, i))
		if err != nil {
			return 0, err
		}
		reqs[i] = collectives.Request{Cfg: cfg, Op: collOp, Size: collSize}
	}
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(prev)
	var t1, t2 []float64
	want := ""
	for r := 0; r < 2; r++ {
		for _, w := range []int{1, 2} {
			t0 := time.Now()
			res, err := collectives.RunMany(reqs, w)
			if err != nil {
				return 0, err
			}
			el := float64(time.Since(t0))
			if w == 1 {
				t1 = append(t1, el)
			} else {
				t2 = append(t2, el)
			}
			got := digest(res)
			if want == "" {
				want = got
			} else if got != want {
				return 0, fmt.Errorf("cluster rung: RunMany results differ between 1 and 2 workers")
			}
		}
	}
	return medianFloat(t1) / medianFloat(t2), nil
}
