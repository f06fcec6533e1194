package transport

import (
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/params"
	"roadrunner/internal/sim"
	"roadrunner/internal/units"
)

// topoSystem builds the named topology at the given scale or fails.
func topoSystem(t *testing.T, name string, cus int) *fabric.System {
	t.Helper()
	s, err := fabric.NewTopologyScaled(name, cus)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRouteCacheSizedByTopology pins the satellite fix for the dense
// route cache: rows and keys come from the topology interface. The
// torus keys per node (its routers are per-node), so a source whose
// global id exceeds the fat-tree's crossbar-count sizing must resolve
// without indexing out of the table — exactly what the old
// CUs*LineXbarsPerCU sizing would have crashed (or silently aliased)
// on.
func TestRouteCacheSizedByTopology(t *testing.T) {
	fab := topoSystem(t, "torus", params.NumCUs)
	if fab.CacheRows() <= fab.CUs*fabric.LineXbarsPerCU {
		t.Fatalf("torus cache rows %d not beyond fat-tree sizing %d — test is vacuous",
			fab.CacheRows(), fab.CUs*fabric.LineXbarsPerCU)
	}
	eng := sim.NewEngine()
	defer eng.Close()
	net := New(eng, fab, ib.OpenMPI(), Congested())
	// The last node of the machine: CacheKey 3059 on the torus, far past
	// the 408 crossbar rows of the fat-tree geometry.
	src := fabric.NodeID{CU: params.NumCUs - 1, Node: params.NodesPerCU - 1}
	dst := fabric.NodeID{CU: 0, Node: 0}
	xp := net.xpath(src, dst)
	want := units.Time(fab.Hops(src, dst)) * ib.OpenMPI().HopLatency
	if xp.fabLat != want {
		t.Errorf("torus xpath fabric latency %v, want %v", xp.fabLat, want)
	}
	if len(net.linkIDs(xp)) != fab.Hops(src, dst)-1 {
		t.Errorf("torus xpath carries %d interior links, want %d (one per router-to-router cable)",
			len(net.linkIDs(xp)), fab.Hops(src, dst)-1)
	}
}

// TestCacheHitNeverCrossesTopologies is the regression the satellite
// asks for: one topology's cache entry can never serve another's path.
// Each Net derives from its own fabric, so the same (src, dst) pair
// must yield each topology's own hop latency and link interior — pinned
// by comparing against the owning fabric, on a pair whose routes differ
// across every tree/torus split.
func TestCacheHitNeverCrossesTopologies(t *testing.T) {
	prof := ib.OpenMPI()
	src := fabric.NodeID{CU: 0, Node: 9}
	dst := fabric.NodeID{CU: 1, Node: 100}
	seen := map[string]units.Time{}
	for _, name := range fabric.Topologies() {
		fab := topoSystem(t, name, 2)
		eng := sim.NewEngine()
		net := New(eng, fab, prof, Congested())
		xp := net.xpath(src, dst)
		if want := units.Time(fab.Hops(src, dst)) * prof.HopLatency; xp.fabLat != want {
			t.Errorf("%s: cached fabric latency %v, want the owning fabric's %v", name, xp.fabLat, want)
		}
		// Every cached interior link must be a link of this topology's
		// own route — not a path leaked from another fabric's geometry.
		route := map[uint64]bool{}
		for _, l := range fab.Route(src, dst) {
			route[l.Key()] = true
		}
		for _, id := range net.linkIDs(xp) {
			if st := net.states[id]; !route[st.link.Key()] {
				t.Errorf("%s: cache holds link %v that is not on this topology's route", name, st.link)
			}
		}
		seen[name] = xp.fabLat
		eng.Close()
	}
	if seen["fattree"] == seen["torus"] {
		t.Errorf("fat-tree and torus agree on fabric latency %v for %v->%v — pair cannot distinguish topologies",
			seen["fattree"], src, dst)
	}
}

// TestSharedCacheRowsPerTopologyGranularity pins the cache-key
// granularity: fat-tree sources on one line crossbar share the cached
// entry (same *xbarPath), while torus sources — each with its own
// router — never do.
func TestSharedCacheRowsPerTopologyGranularity(t *testing.T) {
	prof := ib.OpenMPI()
	dst := fabric.NodeID{CU: 1, Node: 42}
	a, b := fabric.NodeID{CU: 0, Node: 0}, fabric.NodeID{CU: 0, Node: 1} // same crossbar
	{
		eng := sim.NewEngine()
		net := New(eng, topoSystem(t, "fattree", 2), prof, Congested())
		if net.xpath(a, dst) != net.xpath(b, dst) {
			t.Error("fattree: same-crossbar sources do not share the cache entry")
		}
		eng.Close()
	}
	{
		eng := sim.NewEngine()
		net := New(eng, topoSystem(t, "torus", 2), prof, Congested())
		if net.xpath(a, dst) == net.xpath(b, dst) {
			t.Error("torus: distinct routers share a cache entry")
		}
		eng.Close()
	}
}
