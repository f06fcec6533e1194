package trace

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/sim"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// blockEndpoints places ranks on consecutive global nodes, one rank per
// node, on the given core.
func blockEndpoints(fab *fabric.System, ranks, core int) []transport.Endpoint {
	out := make([]transport.Endpoint, ranks)
	for i := range out {
		out[i] = transport.Endpoint{Node: fabric.FromGlobal(i), Core: core}
	}
	return out
}

// chainTrace builds a serial schedule on two ranks: for each size, rank0
// computes then sends; rank1 receives them in order.
func chainTrace(t *testing.T, sizes []units.Size, compute units.Time) *Trace {
	t.Helper()
	rec := NewRecorder("chain", "test", 2)
	for i, s := range sizes {
		if compute > 0 {
			rec.Compute(0, compute, 0)
		}
		rec.Send(0, 1, i, s, 0)
		rec.Recv(1, 0, i, s, 0)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatalf("recorder: %v", err)
	}
	return tr
}

var chainSizes = []units.Size{
	0, 8, 512, 4 * units.KB, 64 * units.KB, 1 * units.MB,
}

// TestReplayMatchesDirectTransfers pins the core replay-timing contract:
// under the zero Policy, or the congested one (a serial schedule never
// queues), replaying a serial schedule produces exactly the event
// sequence of driving transport.Net.Transfer by hand — per message,
// start, sender-visible completion and delivery instants all equal, so
// replay time is the sum of the uncontended transfer costs.
func TestReplayMatchesDirectTransfers(t *testing.T) {
	fab := fabric.NewScaled(1)
	compute := 3 * units.Microsecond
	tr := chainTrace(t, chainSizes, compute)
	for _, pol := range []transport.Policy{{}, transport.Congested()} {
		res, err := Replay(tr, ReplayConfig{
			Fabric:  fab,
			Profile: ib.OpenMPI(),
			Places:  blockEndpoints(fab, 2, 1),
			Policy:  pol,
			Observe: ObserveAll,
		})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}

		// The same schedule, hand-driven on a fresh engine.
		eng := sim.NewEngine()
		defer eng.Close()
		net := transport.New(eng, fab, ib.OpenMPI(), pol)
		src := transport.Endpoint{Node: fabric.FromGlobal(0), Core: 1}
		dst := transport.Endpoint{Node: fabric.FromGlobal(1), Core: 1}
		direct := make([]MessageTiming, len(chainSizes))
		eng.Spawn("sender", func(p *sim.Proc) {
			for i, size := range chainSizes {
				p.Sleep(compute)
				mt := &direct[i]
				mt.SendStart = p.Now()
				net.Transfer(p, src, dst, size, func() { mt.Delivered = eng.Now() })
				mt.SendEnd = p.Now()
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatalf("direct run: %v", err)
		}
		for i := range chainSizes {
			got, want := res.Sends[i], direct[i]
			if got.SendStart != want.SendStart || got.SendEnd != want.SendEnd || got.Delivered != want.Delivered {
				t.Errorf("policy %+v message %d: replay (%v %v %v) != direct (%v %v %v)",
					pol, i, got.SendStart, got.SendEnd, got.Delivered,
					want.SendStart, want.SendEnd, want.Delivered)
			}
		}
		last := direct[len(direct)-1]
		if res.Time != last.Delivered {
			t.Errorf("policy %+v: replay time %v, want last delivery %v", pol, res.Time, last.Delivered)
		}
	}
}

// TestUnqueuedCongestedReplayMatchesUncongested: a congested replay
// whose census reports nothing queued reproduces the zero-Policy replay
// event for event — makespan, every rank's finish, every send's timing
// and the engine's counters — because an admission that does not queue
// adds no calendar event; only the census differs (present vs nil). The
// inputs are a serial chain, concurrent ring shifts and all-pairs
// bursts, each on placements within one crossbar, across crossbars and
// across CUs; off one crossbar the bursts queue and the rest do not.
func TestUnqueuedCongestedReplayMatchesUncongested(t *testing.T) {
	fab := fabric.NewScaled(2)
	traces := map[string]*Trace{
		"chain": chainTrace(t, chainSizes, 3*units.Microsecond),
	}
	for _, size := range []units.Size{0, 4 * units.KB, 16 * units.KB, 64 * units.KB} {
		traces[fmt.Sprintf("ring8 %v", size)] = ringTrace(t, 8, 3, size)
		traces[fmt.Sprintf("mesh8 %v", size)] = meshTrace(t, 8, size)
	}
	strided := func(stride int) []transport.Endpoint {
		out := make([]transport.Endpoint, 8)
		for i := range out {
			out[i] = transport.Endpoint{Node: fabric.FromGlobal(i * stride), Core: 1}
		}
		return out
	}
	placements := map[string][]transport.Endpoint{
		"block":      blockEndpoints(fab, 8, 1),
		"xbars":      strided(8),
		"cross-cu":   strided(45),
		"strided-23": strided(23),
	}
	unqueued := 0
	for tname, tr := range traces {
		for pname, places := range placements {
			places = places[:tr.Meta.Ranks]
			cfg := ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Places: places, Observe: ObserveAll}
			off, err := Replay(tr, cfg)
			if err != nil {
				t.Fatalf("%s %s: zero-Policy replay: %v", tname, pname, err)
			}
			cfg.Policy = transport.Congested()
			con, err := Replay(tr, cfg)
			if err != nil {
				t.Fatalf("%s %s: congested replay: %v", tname, pname, err)
			}
			if off.Congestion != nil {
				t.Errorf("%s %s: zero Policy produced a census", tname, pname)
			}
			c := con.Congestion
			if c == nil {
				t.Fatalf("%s %s: congested replay produced no census", tname, pname)
			}
			if c.Queued != 0 {
				continue
			}
			if c.Links > 0 {
				unqueued++
			}
			if con.Time != off.Time {
				t.Errorf("%s %s: makespan %v congested vs %v", tname, pname, con.Time, off.Time)
			}
			if !reflect.DeepEqual(con.RankFinish, off.RankFinish) {
				t.Errorf("%s %s: rank finish times differ", tname, pname)
			}
			if !reflect.DeepEqual(con.Sends, off.Sends) {
				t.Errorf("%s %s: per-message timings differ", tname, pname)
			}
			if con.EngineStats != off.EngineStats {
				t.Errorf("%s %s: engine stats %+v congested vs %+v", tname, pname, con.EngineStats, off.EngineStats)
			}
		}
	}
	if unqueued == 0 {
		t.Fatal("no congested replay admitted a flow without queueing; the comparison is vacuous")
	}
}

// meshTrace builds an irregular all-pairs burst: every rank sends to
// every higher rank, then receives from every lower rank — enough
// concurrency to exercise mailbox matching and shared links.
func meshTrace(t *testing.T, ranks int, size units.Size) *Trace {
	t.Helper()
	rec := NewRecorder(fmt.Sprintf("mesh-%d", ranks), "test", ranks)
	for r := 0; r < ranks; r++ {
		rec.Compute(r, units.Time(r)*units.Microsecond, 0)
		for dst := r + 1; dst < ranks; dst++ {
			rec.Send(r, dst, r*ranks+dst, size, 0)
		}
		for src := 0; src < r; src++ {
			rec.Recv(r, src, src*ranks+r, size, 0)
		}
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatalf("recorder: %v", err)
	}
	return tr
}

// ringTrace builds rounds of a ring shift: in each round every rank
// computes, sends to its right neighbour and receives from its left, so
// all ranks' flows are on the wire at once, each on a route of its own.
func ringTrace(t *testing.T, ranks, rounds int, size units.Size) *Trace {
	t.Helper()
	rec := NewRecorder(fmt.Sprintf("ring-%d", ranks), "test", ranks)
	for k := 0; k < rounds; k++ {
		for r := 0; r < ranks; r++ {
			rec.Compute(r, units.Time(r+1)*units.Microsecond, 0)
			rec.Send(r, (r+1)%ranks, k, size, 0)
			rec.Recv(r, (r+ranks-1)%ranks, k, size, 0)
		}
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatalf("recorder: %v", err)
	}
	return tr
}

// TestReplayDeterministic: byte-identical results across repeated runs,
// congested and not.
func TestReplayDeterministic(t *testing.T) {
	fab := fabric.NewScaled(1)
	tr := meshTrace(t, 8, 64*units.KB)
	for _, pol := range []transport.Policy{{}, transport.Congested()} {
		cfg := ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Places: blockEndpoints(fab, 8, 1), Policy: pol, Observe: ObserveAll}
		a, err := Replay(tr, cfg)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		b, err := Replay(tr, cfg)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("policy %+v: repeated replays differ", pol)
		}
	}
}

// TestCongestionSlowsSharedLinks: flows forced across one shared cable
// serialize under the wormhole policy, and the census reports the
// queueing.
func TestCongestionSlowsSharedLinks(t *testing.T) {
	fab := fabric.NewScaled(1)
	// 4 ranks on crossbar 0 all send at once to 4 ranks on crossbar 1:
	// the routes share spine cables, so the congested replay must queue.
	ranks := 8
	rec := NewRecorder("cross", "test", ranks)
	size := 1 * units.MB
	for r := 0; r < 4; r++ {
		rec.Send(r, 4+r, r, size, 0)
	}
	for r := 4; r < ranks; r++ {
		rec.Recv(r, r-4, r-4, size, 0)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatalf("recorder: %v", err)
	}
	places := make([]transport.Endpoint, ranks)
	for r := 0; r < 4; r++ {
		places[r] = transport.Endpoint{Node: fabric.FromGlobal(r), Core: 1}
		// Destination globals 8, 20, 32, 44 all hash onto spine 8, so the
		// four flows out of crossbar 0 share the xbar0→spine8 cable.
		places[4+r] = transport.Endpoint{Node: fabric.FromGlobal(8 + 12*r), Core: 1}
	}
	cfg := ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Places: places, Observe: ObserveCensus}
	baseline, err := Replay(tr, cfg)
	if err != nil {
		t.Fatalf("baseline replay: %v", err)
	}
	cfg.Policy = transport.Congested()
	congested, err := Replay(tr, cfg)
	if err != nil {
		t.Fatalf("congested replay: %v", err)
	}
	if congested.Time <= baseline.Time {
		t.Errorf("congested %v not slower than baseline %v", congested.Time, baseline.Time)
	}
	c := congested.Congestion
	if c == nil || c.Queued == 0 || c.TotalWait == 0 {
		t.Fatalf("no queueing in census: %+v", c)
	}
}

// TestReplayComputeScale stretches compute records without touching
// communication.
func TestReplayComputeScale(t *testing.T) {
	fab := fabric.NewScaled(1)
	tr := chainTrace(t, []units.Size{8 * units.KB}, 10*units.Microsecond)
	cfg := ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Places: blockEndpoints(fab, 2, 1)}
	r1, err := Replay(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ComputeScale = 2
	r2, err := Replay(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := r1.Time + 10*units.Microsecond; r2.Time != want {
		t.Errorf("scaled replay %v, want %v", r2.Time, want)
	}
	cfg.ComputeScale = -1
	if _, err := Replay(tr, cfg); err == nil {
		t.Error("negative compute scale accepted")
	}
	// Non-finite scales would propagate NaN/Inf into every compute
	// sleep (and a NaN duration panics the engine mid-run); they must
	// be rejected up front like negative ones.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg.ComputeScale = bad
		if _, err := Replay(tr, cfg); err == nil {
			t.Errorf("compute scale %v accepted", bad)
		}
	}
}

func TestReplayConfigErrors(t *testing.T) {
	fab := fabric.NewScaled(1)
	tr := pingPong(t)
	cases := []struct {
		name string
		cfg  ReplayConfig
	}{
		{"nil fabric", ReplayConfig{Profile: ib.OpenMPI(), Places: blockEndpoints(fab, 2, 1)}},
		{"too few placements", ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Places: blockEndpoints(fab, 1, 1)}},
		{"node outside fabric", ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(),
			Places: []transport.Endpoint{{Node: fabric.NodeID{CU: 3, Node: 0}, Core: 1}, {Node: fabric.FromGlobal(1), Core: 1}}}},
		{"bad core", ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(),
			Places: []transport.Endpoint{{Node: fabric.FromGlobal(0), Core: 7}, {Node: fabric.FromGlobal(1), Core: 1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Replay(tr, tc.cfg); err == nil {
				t.Fatal("bad config accepted")
			}
		})
	}
	// An invalid trace is rejected before any engine is built.
	bad := mutate(t, func(tr *Trace) { tr.Records[1].Tag = 99 })
	if _, err := Replay(bad, ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Places: blockEndpoints(fab, 2, 1)}); err == nil {
		t.Fatal("invalid trace replayed")
	}
}
