package transport

import (
	"slices"
	"testing"
	"unsafe"

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

// TestRouteCacheSizedByRun pins the route cache's footprint: rows are
// indexed by the net's dense destination index, so a 64-rank placement
// on the full machine holds rows as wide as the destinations it routes
// to, not as wide as the machine. Touching every destination afterwards
// copies each row at most once into a full-width one, and a PairPath
// taken before its row widened keeps reading its own route.
func TestRouteCacheSizedByRun(t *testing.T) {
	prof := ib.OpenMPI()
	entry := int(unsafe.Sizeof(xbarPath{}))
	for _, name := range []string{"fattree", "torus"} {
		t.Run(name, func(t *testing.T) {
			fab := topoSystem(t, name, params.NumCUs)
			eng := sim.NewEngine()
			defer eng.Close()
			net := New(eng, fab, prof, Congested())
			places := make([]fabric.NodeID, 64)
			for i := range places {
				places[i] = fabric.FromGlobal(i * fab.Nodes() / len(places))
			}
			type snap struct {
				pp    PairPath
				hops  int
				links []int32
			}
			var early []snap
			for _, s := range places {
				for _, d := range places {
					if s != d {
						pp := net.PairPath(s, d)
						early = append(early, snap{pp, pp.Hops(), append([]int32(nil), pp.LinkIDs()...)})
					}
				}
			}
			rows, bytes := 0, 0
			for _, row := range net.xpaths {
				if row != nil {
					rows++
					bytes += cap(row) * entry
				}
			}
			if full := rows * fab.Nodes() * entry; bytes*4 > full {
				t.Errorf("%d rows hold %d bytes of route cache, full-width rows %d", rows, bytes, full)
			}

			// Every destination from every placed source: each row's
			// backing array may change only once, from its first
			// (narrow) allocation to the full-width one.
			first := map[int]*xbarPath{}
			allocs := map[int]int{}
			for _, s := range places {
				key := fab.CacheKey(s)
				if row := net.xpaths[key]; row != nil && first[key] == nil {
					first[key], allocs[key] = &row[0], 1
				}
				for g := 0; g < fab.Nodes(); g++ {
					if d := fabric.FromGlobal(g); d != s {
						net.xpath(s, d)
						if p := &net.xpaths[key][0]; p != first[key] {
							first[key] = p
							allocs[key]++
						}
					}
				}
			}
			for key, n := range allocs {
				if n > 2 {
					t.Errorf("row %d allocated %d times, want a narrow row widened at most once", key, n)
				}
				if len(net.xpaths[key]) != fab.Nodes() {
					t.Errorf("row %d is %d wide after routing to every node, want %d", key, len(net.xpaths[key]), fab.Nodes())
				}
			}
			for _, e := range early {
				if e.pp.Hops() != e.hops || !slices.Equal(e.pp.LinkIDs(), e.links) {
					t.Fatalf("a PairPath taken before its row widened changed: hops %d -> %d, links %v -> %v",
						e.hops, e.pp.Hops(), e.links, e.pp.LinkIDs())
				}
			}
		})
	}
}
