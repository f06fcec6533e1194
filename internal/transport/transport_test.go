package transport

import (
	"reflect"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/sim"
	"roadrunner/internal/units"
)

func ep(cu, node int) Endpoint {
	return Endpoint{Node: fabric.NodeID{CU: cu, Node: node}, Core: 1}
}

// runTransfers executes the given transfers concurrently (one proc each)
// and returns each sender's completion time and each delivery time.
func runTransfers(t *testing.T, pol Policy, size units.Size, pairs [][2]Endpoint) (send, recv []units.Time, net *Net) {
	t.Helper()
	eng := sim.NewEngine()
	defer eng.Close()
	net = New(eng, fabric.NewScaled(2), ib.OpenMPI(), pol)
	send = make([]units.Time, len(pairs))
	recv = make([]units.Time, len(pairs))
	for i, pr := range pairs {
		i, pr := i, pr
		eng.Spawn("sender", func(p *sim.Proc) {
			net.Transfer(p, pr[0], pr[1], size, func() { recv[i] = eng.Now() })
			send[i] = p.Now()
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return send, recv, net
}

// TestUplinkSerialization pins the congestion mechanism: two flows from
// the same line crossbar whose destination hashes pick the same uplink
// cable serialize under the wormhole policy and overlap on the
// infinite-capacity fabric (the zero Policy).
func TestUplinkSerialization(t *testing.T) {
	// Sources on CU0 crossbar 0; destinations 180 and 184 are both
	// 0 mod 4, so both flows want cable (sw0, CU0, slot0).
	pairs := [][2]Endpoint{
		{ep(0, 0), ep(1, 0)},
		{ep(0, 1), ep(1, 4)},
	}
	const size = 256 * units.KB
	infS, _, _ := runTransfers(t, Policy{}, size, pairs)
	conS, _, net := runTransfers(t, Congested(), size, pairs)
	if conS[0] != infS[0] {
		t.Errorf("first-admitted flow slowed: %v vs %v", conS[0], infS[0])
	}
	if float64(conS[1]) < 1.5*float64(infS[1]) {
		t.Errorf("second flow not serialized: congested %v vs infinite %v", conS[1], infS[1])
	}
	c := net.Census(5)
	if c == nil || c.Queued != 1 || c.TotalWait <= 0 {
		t.Fatalf("census = %+v, want one queued flow with positive wait", c)
	}
	// Endpoint accounting composes with link occupancy: the adapters
	// still saw every flow and byte even though admission serialized.
	es := net.HCA(pairs[0][0].Node).Stats()
	if es.Flows[0] != 1 || es.Bytes[0] != size || es.Peak[0] != 1 {
		t.Errorf("src endpoint stats %+v", es)
	}
	// The flows share both the egress and the ingress cable of the
	// tapered tier; the queueing lands on whichever sorts first in the
	// acquisition order, but the hottest link must be an uplink cable.
	hot := c.Top[0]
	if hot.Link.Kind != fabric.LinkUplink {
		t.Errorf("hottest link %v, want an uplink cable", hot.Link)
	}
	if hot.Messages != 2 || hot.Queued != 1 || hot.Wait != c.TotalWait {
		t.Errorf("hot link usage %+v", hot)
	}
	if hot.Utilization <= 0 || hot.MeanQueue <= 0 {
		t.Errorf("hot link occupancy not accounted: %+v", hot)
	}
}

// requireUnqueuedMatch runs pairs at size under Congested() and under
// the zero Policy and requires that no flow queued and that every
// completion and delivery instant and the engine's counters match tick
// for tick: an admission that does not queue adds no calendar event.
func requireUnqueuedMatch(t *testing.T, size units.Size, pairs [][2]Endpoint) {
	t.Helper()
	offS, offR, off := runTransfers(t, Policy{}, size, pairs)
	conS, conR, con := runTransfers(t, Congested(), size, pairs)
	c := con.Census(1)
	if c.Queued != 0 || c.TotalWait != 0 {
		t.Fatalf("size %v: census shows queueing: %+v", size, c)
	}
	if size > 0 && c.Links == 0 {
		t.Fatalf("size %v: no flow was admitted onto a link", size)
	}
	for i := range pairs {
		if conS[i] != offS[i] || conR[i] != offR[i] {
			t.Errorf("size %v pair %d: congested %v/%v != zero Policy %v/%v",
				size, i, conS[i], conR[i], offS[i], offR[i])
		}
	}
	if a, b := off.eng.Stats(), con.eng.Stats(); a != b {
		t.Errorf("size %v: engine stats %+v under the zero Policy, %+v congested", size, a, b)
	}
	if off.Census(1) != nil {
		t.Error("zero-Policy net produced a census")
	}
}

// TestDisjointRoutesDoNotQueue checks that flows on disjoint cables never
// wait even under the wormhole policy.
func TestDisjointRoutesDoNotQueue(t *testing.T) {
	// Different source crossbars and destination hashes: disjoint routes.
	pairs := [][2]Endpoint{
		{ep(0, 0), ep(1, 1)},
		{ep(0, 20), ep(1, 90)},
		{ep(0, 60), ep(1, 175)},
	}
	requireUnqueuedMatch(t, 256*units.KB, pairs)
}

// TestUnqueuedCongestedTransfersMatchUncongested is the transport-level
// half of the invariant that the congested path costs nothing while it
// does not queue: same-crossbar, same-CU, cross-CU and intra-node pairs
// at sizes from zero through eager to rendezvous run tick for tick as
// on the zero Policy.
func TestUnqueuedCongestedTransfersMatchUncongested(t *testing.T) {
	pairs := [][2]Endpoint{
		{ep(0, 0), ep(0, 1)},    // same crossbar
		{ep(0, 2), ep(0, 170)},  // same CU
		{ep(0, 3), ep(1, 3)},    // cross CU, same crossbar index
		{ep(0, 9), ep(1, 100)},  // cross CU, different crossbar
		{ep(1, 50), ep(1, 50)},  // intra-node shared memory
		{ep(0, 40), ep(1, 177)}, // contends with nothing
	}
	for _, size := range []units.Size{0, 8, 4 * units.KB, 256 * units.KB} {
		requireUnqueuedMatch(t, size, pairs)
	}
}

// TestCountersAndCensusDeterminism checks message/wire accounting and
// that repeated congested runs produce identical censuses.
func TestCountersAndCensusDeterminism(t *testing.T) {
	pairs := [][2]Endpoint{
		{ep(0, 0), ep(1, 0)},
		{ep(0, 1), ep(1, 4)},
		{ep(0, 7), ep(0, 7)}, // intra-node: counted, not on the wire
	}
	_, _, a := runTransfers(t, Congested(), 64*units.KB, pairs)
	_, _, b := runTransfers(t, Congested(), 64*units.KB, pairs)
	if a.Messages() != 3 || a.WireBytes() != 2*64*units.KB {
		t.Errorf("messages/wire = %d/%v", a.Messages(), a.WireBytes())
	}
	ca, cb := a.Census(10), b.Census(10)
	if ca.Links != cb.Links || ca.Queued != cb.Queued || ca.TotalWait != cb.TotalWait {
		t.Fatalf("census diverged: %+v vs %+v", ca, cb)
	}
	for i := range ca.Top {
		if ca.Top[i] != cb.Top[i] {
			t.Errorf("top link %d diverged: %v vs %v", i, ca.Top[i], cb.Top[i])
		}
	}
}

// TestCensusTieOrderingDeterministic crafts a census where every link is
// equally occupied — identical wait (zero) and identical bytes — so the
// primary and secondary ranking criteria all tie. The census gathers
// links from a map whose iteration order varies between runs; only the
// link-identity tiebreak in Hotter keeps the top-N output stable, and
// this test pins it: ties must come out in Key order, every run.
func TestCensusTieOrderingDeterministic(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	net := New(eng, fabric.NewScaled(2), ib.OpenMPI(), Congested())
	// One proc runs the transfers back to back, so no two flows ever
	// overlap: every link ends with Wait 0. Equal sizes give equal
	// Bytes. Distinct source crossbars give distinct links.
	pairs := [][2]Endpoint{
		{ep(0, 0), ep(1, 0)},
		{ep(0, 9), ep(1, 9)},
		{ep(0, 17), ep(1, 17)},
		{ep(0, 25), ep(1, 25)},
		{ep(1, 33), ep(0, 33)},
		{ep(1, 41), ep(0, 41)},
	}
	eng.Spawn("serial-sender", func(p *sim.Proc) {
		for _, pr := range pairs {
			net.Transfer(p, pr[0], pr[1], 4*units.KB, func() {})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	c := net.Census(1 << 30)
	if c.Queued != 0 || c.TotalWait != 0 {
		t.Fatalf("crafted flows queued: %+v", c)
	}
	if len(c.Top) < 2*len(pairs) {
		t.Fatalf("only %d links in the census", len(c.Top))
	}
	for i, u := range c.Top {
		if u.Wait != 0 || u.Bytes != 4*units.KB {
			t.Fatalf("link %v not an exact tie: wait %v, bytes %v", u.Link, u.Wait, u.Bytes)
		}
		if i > 0 && c.Top[i-1].Link.Key() >= u.Link.Key() {
			t.Errorf("tied links out of Key order at %d: %v before %v", i, c.Top[i-1].Link, u.Link)
		}
	}
	for i, u := range c.TopUplinks {
		if i > 0 && c.TopUplinks[i-1].Link.Key() >= u.Link.Key() {
			t.Errorf("tied uplinks out of Key order at %d: %v before %v", i, c.TopUplinks[i-1].Link, u.Link)
		}
	}
}

// TestCensusTopBound: top <= 0 returns the summary counters with empty
// ranked lists instead of relying on slice-bound luck (top = -1 used to
// slice all[:-1] and panic), and top larger than the link count returns
// everything.
func TestCensusTopBound(t *testing.T) {
	pairs := [][2]Endpoint{
		{ep(0, 0), ep(1, 0)},
		{ep(0, 1), ep(1, 4)},
	}
	_, _, net := runTransfers(t, Congested(), 64*units.KB, pairs)
	full := net.Census(1 << 30)
	if full.Links == 0 {
		t.Fatal("no links in census")
	}
	for _, top := range []int{0, -1, -1 << 30} {
		c := net.Census(top)
		if c == nil {
			t.Fatalf("Census(%d) = nil", top)
		}
		if len(c.Top) != 0 || len(c.TopUplinks) != 0 {
			t.Errorf("Census(%d): %d top links, %d top uplinks, want none",
				top, len(c.Top), len(c.TopUplinks))
		}
		if c.Links != full.Links || c.Queued != full.Queued || c.TotalWait != full.TotalWait ||
			c.UplinkQueued != full.UplinkQueued || c.UplinkWait != full.UplinkWait {
			t.Errorf("Census(%d) summary diverged from full census: %+v vs %+v", top, c, full)
		}
	}
}

// TestNetResetReproducesFreshRun pins the pooling contract: after Reset
// (alongside an engine reset) the same workload on the same Net produces
// timings, counters and a census identical to a fresh engine+Net pair —
// including links touched only by a previous, different workload, which
// must not leak into the census.
func TestNetResetReproducesFreshRun(t *testing.T) {
	warm := [][2]Endpoint{ // first workload: touches its own links
		{ep(0, 30), ep(1, 80)},
		{ep(1, 12), ep(0, 99)},
	}
	pairs := [][2]Endpoint{
		{ep(0, 0), ep(1, 0)},
		{ep(0, 1), ep(1, 4)},
		{ep(0, 7), ep(0, 7)},
	}
	const size = 256 * units.KB
	run := func(eng *sim.Engine, net *Net, ps [][2]Endpoint) (send, recv []units.Time) {
		send = make([]units.Time, len(ps))
		recv = make([]units.Time, len(ps))
		for i, pr := range ps {
			i, pr := i, pr
			eng.Spawn("sender", func(p *sim.Proc) {
				net.Transfer(p, pr[0], pr[1], size, func() { recv[i] = eng.Now() })
				send[i] = p.Now()
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return send, recv
	}

	fresh := sim.NewEngine()
	defer fresh.Close()
	freshNet := New(fresh, fabric.NewScaled(2), ib.OpenMPI(), Congested())
	wantS, wantR := run(fresh, freshNet, pairs)
	want := freshNet.Census(1 << 30)

	pooled := sim.NewEngine()
	defer pooled.Close()
	pooledNet := New(pooled, fabric.NewScaled(2), ib.OpenMPI(), Congested())
	run(pooled, pooledNet, warm)
	pooled.Reset()
	pooledNet.Reset()
	gotS, gotR := run(pooled, pooledNet, pairs)
	got := pooledNet.Census(1 << 30)

	for i := range pairs {
		if gotS[i] != wantS[i] || gotR[i] != wantR[i] {
			t.Errorf("pair %d: pooled %v/%v != fresh %v/%v", i, gotS[i], gotR[i], wantS[i], wantR[i])
		}
	}
	if pooledNet.Messages() != freshNet.Messages() || pooledNet.WireBytes() != freshNet.WireBytes() {
		t.Errorf("counters: pooled %d/%v != fresh %d/%v",
			pooledNet.Messages(), pooledNet.WireBytes(), freshNet.Messages(), freshNet.WireBytes())
	}
	if got.Links != want.Links || got.Queued != want.Queued || got.TotalWait != want.TotalWait ||
		len(got.Top) != len(want.Top) {
		t.Fatalf("census diverged after reset:\n  pooled %+v\n  fresh  %+v", got, want)
	}
	for i := range want.Top {
		if got.Top[i] != want.Top[i] {
			t.Errorf("top link %d: pooled %v != fresh %v", i, got.Top[i], want.Top[i])
		}
	}
}

// TestHotterTotalOrder checks the ranking criteria directly: wait beats
// bytes, bytes beat identity, and identity breaks exact ties both ways.
func TestHotterTotalOrder(t *testing.T) {
	la := fabric.Link{Kind: fabric.LinkSpine, Up: true, CU: 0, Sw: -1, A: 0, B: 1}
	lb := fabric.Link{Kind: fabric.LinkSpine, Up: true, CU: 0, Sw: -1, A: 0, B: 2}
	u := func(l fabric.Link, wait units.Time, bytes units.Size) LinkUsage {
		return LinkUsage{Link: l, Wait: wait, Bytes: bytes}
	}
	if !Hotter(u(la, 5, 0), u(lb, 3, 100)) {
		t.Error("higher wait must rank first")
	}
	if !Hotter(u(lb, 5, 100), u(la, 5, 50)) {
		t.Error("equal wait: more bytes must rank first")
	}
	if !Hotter(u(la, 5, 100), u(lb, 5, 100)) || Hotter(u(lb, 5, 100), u(la, 5, 100)) {
		t.Error("exact tie must break by link Key, lower first")
	}
	if Hotter(u(la, 5, 100), u(la, 5, 100)) {
		t.Error("Hotter must be irreflexive")
	}
}

// TestRouteCacheEntryHoldsNoPointer pins the route cache's memory
// contract: an entry is a plain value (link ids, not link pointers), so
// the dense rows — over a million entries on the full machine — cost the
// garbage collector's mark phase nothing.
func TestRouteCacheEntryHoldsNoPointer(t *testing.T) {
	typ := reflect.TypeOf(xbarPath{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch k := f.Type.Kind(); k {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.Func,
			reflect.Chan, reflect.String, reflect.UnsafePointer:
			t.Errorf("xbarPath.%s is a %s", f.Name, k)
		case reflect.Array, reflect.Struct:
			t.Errorf("xbarPath.%s is a %s; check it for pointers", f.Name, k)
		}
	}
	if size := typ.Size(); size > 32 {
		t.Errorf("xbarPath is %d bytes, want at most 32", size)
	}
}
