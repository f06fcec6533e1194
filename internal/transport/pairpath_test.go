package transport

import (
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/params"
	"roadrunner/internal/sim"
	"roadrunner/internal/units"
)

// pairSample returns a deterministic spread of distinct node pairs on a
// 2-CU system: same-crossbar, same-CU cross-crossbar, cross-CU
// same-index, cross-CU different-crossbar, and a handful of strided
// pairs to reach every link kind a topology routes through.
func pairSample() [][2]fabric.NodeID {
	pairs := [][2]fabric.NodeID{
		{{CU: 0, Node: 0}, {CU: 0, Node: 1}},
		{{CU: 0, Node: 2}, {CU: 0, Node: 170}},
		{{CU: 0, Node: 3}, {CU: 1, Node: 3}},
		{{CU: 0, Node: 9}, {CU: 1, Node: 100}},
		{{CU: 1, Node: 177}, {CU: 0, Node: 40}},
	}
	for i := 0; i < params.NodesPerCU; i += 17 {
		pairs = append(pairs, [2]fabric.NodeID{
			{CU: 0, Node: i}, {CU: 1, Node: (i*7 + 3) % params.NodesPerCU},
		})
	}
	return pairs
}

// TestPairPathAdmissionOrderPerTopology pins, for every registered
// topology, the contract internal/surrogate folds offered load over:
// AdmissionLinks returns exactly the fabric route minus the node-port
// cables, sorted ascending by Link.Key() — the global acquisition order
// Pending.admit takes them in. A route-cache refactor that reorders or
// re-members the admission set would silently skew the analytic model;
// this test makes it loud.
func TestPairPathAdmissionOrderPerTopology(t *testing.T) {
	for _, name := range fabric.Topologies() {
		name := name
		t.Run(name, func(t *testing.T) {
			fab := topoSystem(t, name, 2)
			eng := sim.NewEngine()
			defer eng.Close()
			net := New(eng, fab, ib.OpenMPI(), Congested())
			for _, pr := range pairSample() {
				src, dst := pr[0], pr[1]
				pp := net.PairPath(src, dst)
				route := fab.Route(src, dst)

				// Membership: the admission set is the route's
				// fabric-interior links, node ports dropped (the ib HCA
				// model already bills that copper).
				want := map[uint64]fabric.Link{}
				nodePorts := 0
				for _, l := range route {
					if l.Kind == fabric.LinkNodePort {
						nodePorts++
						continue
					}
					want[l.Key()] = l
				}
				got := pp.AdmissionLinks(nil)
				if len(got) != len(want) {
					t.Fatalf("%s -> %s: %d admission links, route has %d interior links",
						src, dst, len(got), len(want))
				}
				for _, l := range got {
					if _, ok := want[l.Key()]; !ok {
						t.Fatalf("%s -> %s: admission link %v not on the route", src, dst, l)
					}
					if l.Kind == fabric.LinkNodePort {
						t.Fatalf("%s -> %s: node-port cable %v admission-controlled", src, dst, l)
					}
				}
				if nodePorts == 0 {
					t.Fatalf("%s -> %s: route carries no node-port cable", src, dst)
				}

				// Order: strictly ascending by Key — the deadlock-free
				// total acquisition order.
				for i := 1; i < len(got); i++ {
					if got[i-1].Key() >= got[i].Key() {
						t.Fatalf("%s -> %s: admission order not strictly ascending at %d: %v then %v",
							src, dst, i, got[i-1], got[i])
					}
				}

				// The buf form appends.
				pre := []fabric.Link{route[0]}
				ext := pp.AdmissionLinks(pre)
				if len(ext) != 1+len(got) || ext[0] != route[0] {
					t.Fatalf("%s -> %s: AdmissionLinks did not append to buf", src, dst)
				}
			}
		})
	}
}

// TestPairPathTimingAccessorsPerTopology pins the exported latency
// decomposition against the fabric's own hop count and the profile
// arithmetic the transfer path charges.
func TestPairPathTimingAccessorsPerTopology(t *testing.T) {
	prof := ib.OpenMPI()
	for _, name := range fabric.Topologies() {
		name := name
		t.Run(name, func(t *testing.T) {
			fab := topoSystem(t, name, 2)
			eng := sim.NewEngine()
			defer eng.Close()
			net := New(eng, fab, prof, Congested())
			for _, pr := range pairSample() {
				src, dst := pr[0], pr[1]
				pp := net.PairPath(src, dst)
				if want := fab.Hops(src, dst); pp.Hops() != want {
					t.Errorf("%s -> %s: Hops %d, fabric says %d", src, dst, pp.Hops(), want)
				}
				if want := units.Time(pp.Hops()) * prof.HopLatency; pp.FabricLatency() != want {
					t.Errorf("%s -> %s: FabricLatency %v, want %v", src, dst, pp.FabricLatency(), want)
				}
				if want := 2 * (2*prof.PerSideOverhead + pp.FabricLatency()); pp.RendezvousExtra() != want {
					t.Errorf("%s -> %s: RendezvousExtra %v, want %v", src, dst, pp.RendezvousExtra(), want)
				}
			}
		})
	}
}

// TestPairPathAdmissionEmptyWhenCongestionOff pins the congestion-off
// shape: no link state exists, so the admission set is empty while the
// timing accessors still resolve.
func TestPairPathAdmissionEmptyWhenCongestionOff(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	net := New(eng, fabric.NewScaled(2), ib.OpenMPI(), Policy{})
	pp := net.PairPath(fabric.NodeID{CU: 0, Node: 0}, fabric.NodeID{CU: 1, Node: 100})
	if ls := pp.AdmissionLinks(nil); len(ls) != 0 {
		t.Errorf("congestion-off admission set: %v, want empty", ls)
	}
	if pp.Hops() <= 0 || pp.FabricLatency() <= 0 {
		t.Errorf("timing accessors empty off-path: hops %d lat %v", pp.Hops(), pp.FabricLatency())
	}
}

// TestResolvingRoutesBuildsNoResource pins the lazy channel: resolving
// routes on a congested net (what internal/surrogate does) creates link
// states but no admission resource, Reset passes over such states, and
// only the links a flow is admitted onto gain one.
func TestResolvingRoutesBuildsNoResource(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	net := New(eng, fabric.NewScaled(2), ib.OpenMPI(), Congested())
	for _, pr := range pairSample() {
		net.PairPath(pr[0], pr[1])
	}
	if net.Links() == 0 {
		t.Fatal("no link resolved")
	}
	for id, st := range net.states {
		if st.res != nil {
			t.Fatalf("link %v has a resource before any admission", net.Link(int32(id)))
		}
	}
	net.Reset()
	src, dst := ep(0, 9), ep(1, 100)
	eng.Spawn("sender", func(p *sim.Proc) {
		net.Transfer(p, src, dst, 64*units.KB, func() {})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	admitted := map[int32]bool{}
	for _, id := range net.PairPath(src.Node, dst.Node).LinkIDs() {
		admitted[id] = true
	}
	for id, st := range net.states {
		if (st.res != nil) != admitted[int32(id)] {
			t.Errorf("link %v: resource %v, admitted %v", net.Link(int32(id)), st.res != nil, admitted[int32(id)])
		}
	}
	if c := net.Census(1); c.Links != len(admitted) {
		t.Errorf("census counts %d links, the flow took %d", c.Links, len(admitted))
	}
}
