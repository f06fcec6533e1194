package fabric

import (
	"reflect"
	"testing"

	"roadrunner/internal/params"
)

// sampleNodes picks a cross-section of nodes — crossbar boundaries,
// CU boundaries, both switch sides — bounded by the system size.
func sampleNodes(s *System) []NodeID {
	cus := []int{0}
	if s.CUs > 1 {
		cus = append(cus, 1, s.CUs-1)
	}
	if s.CUs > params.FirstSideCUs {
		cus = append(cus, params.FirstSideCUs-1, params.FirstSideCUs)
	}
	var nodes []NodeID
	for _, cu := range cus {
		for _, n := range []int{0, 1, 7, 8, 95, 176, params.NodesPerCU - 1} {
			nodes = append(nodes, NodeID{cu, n})
		}
	}
	return nodes
}

// testSystems returns the scales the invariant suite runs per topology:
// exhaustive at 1 CU, cross-CU at 2, both switch sides at 13.
func testSystems(t *testing.T, name string) []*System {
	t.Helper()
	var systems []*System
	for _, cus := range []int{1, 2, 13} {
		s, err := NewTopologyScaled(name, cus)
		if err != nil {
			t.Fatalf("NewTopologyScaled(%q, %d): %v", name, cus, err)
		}
		systems = append(systems, s)
	}
	return systems
}

// checkPair asserts the routing contract for one ordered pair.
func checkPair(t *testing.T, s *System, a, b NodeID) {
	t.Helper()
	name := s.TopologyName()
	h := s.Hops(a, b)
	r := s.Route(a, b)
	if a == b {
		if h != 0 || len(r) != 0 {
			t.Fatalf("%s: self pair %v: hops=%d route=%v", name, a, h, r)
		}
		return
	}
	if len(r) != h+1 {
		t.Fatalf("%s: %v->%v: len(route)=%d, hops=%d", name, a, b, len(r), h)
	}
	if len(r) > s.MaxRouteLen() {
		t.Fatalf("%s: %v->%v: route %d links > MaxRouteLen %d", name, a, b, len(r), s.MaxRouteLen())
	}
	first, last := r[0], r[len(r)-1]
	if first.Kind != LinkNodePort || !first.Up || first.CU != a.CU || first.A != a.Node {
		t.Fatalf("%s: %v->%v: first link %v is not a's node port", name, a, b, first)
	}
	if last.Kind != LinkNodePort || last.Up || last.CU != b.CU || last.A != b.Node {
		t.Fatalf("%s: %v->%v: last link %v is not b's node port", name, a, b, last)
	}
	// Deterministic static routing: a second derivation is identical.
	if r2 := s.Route(a, b); !reflect.DeepEqual(r, r2) {
		t.Fatalf("%s: %v->%v: route not deterministic:\n%v\n%v", name, a, b, r2, r)
	}
	seen := make(map[uint64]bool, len(r))
	for _, l := range r {
		k := l.Key()
		if seen[k] {
			t.Fatalf("%s: %v->%v: duplicate link %v in route", name, a, b, l)
		}
		seen[k] = true
		// Duplex non-contention: the opposite channel of the same cable
		// is a distinct resource (different Key), so the two directions
		// can never queue behind each other.
		rev := l
		switch l.Kind {
		case LinkSwitchInternal:
			rev.A, rev.B = l.B, l.A
		default:
			rev.Up = !l.Up
		}
		if rev.Key() == k {
			t.Fatalf("%s: %v->%v: link %v equals its reverse channel", name, a, b, l)
		}
	}
}

// TestTopologyInvariants is the per-topology routing invariant suite:
// route/hops consistency (len(Route)==Hops+1), deterministic static
// routing, node-port endpoints, no duplicate links, duplex
// non-contention and cache-key exactness — exhaustively within one CU,
// and over a cross-CU/cross-side node sample at larger scale, for every
// registered topology.
func TestTopologyInvariants(t *testing.T) {
	for _, name := range Topologies() {
		t.Run(name, func(t *testing.T) {
			for _, s := range testSystems(t, name) {
				nodes := sampleNodes(s)
				if s.CUs == 1 {
					// Exhaustive at one CU.
					nodes = nodes[:0]
					for n := 0; n < params.NodesPerCU; n++ {
						nodes = append(nodes, NodeID{0, n})
					}
				}
				for _, a := range nodes {
					for _, b := range nodes {
						checkPair(t, s, a, b)
					}
				}
			}
		})
	}
}

// TestCacheKeyContract pins the route-cache exactness contract: two
// sources with equal CacheKey produce identical fabric-interior routes
// and hop counts for every sampled destination, and keys stay inside
// [0, CacheRows).
func TestCacheKeyContract(t *testing.T) {
	interior := func(s *System, a, b NodeID) []Link {
		var r []Link
		for _, l := range s.Route(a, b) {
			if l.Kind != LinkNodePort {
				r = append(r, l)
			}
		}
		return r
	}
	for _, name := range Topologies() {
		t.Run(name, func(t *testing.T) {
			s, err := NewTopologyScaled(name, 13)
			if err != nil {
				t.Fatal(err)
			}
			byKey := map[int]NodeID{}
			nodes := sampleNodes(s)
			// Same-crossbar neighbors exercise shared keys on the trees.
			nodes = append(nodes, NodeID{0, 2}, NodeID{0, 3}, NodeID{1, 9})
			for _, n := range nodes {
				key := s.CacheKey(n)
				if key < 0 || key >= s.CacheRows() {
					t.Fatalf("%s: CacheKey(%v)=%d outside [0,%d)", name, n, key, s.CacheRows())
				}
				prev, ok := byKey[key]
				if !ok {
					byKey[key] = n
					continue
				}
				for _, dst := range nodes {
					if dst == n || dst == prev {
						continue
					}
					if s.Hops(prev, dst) != s.Hops(n, dst) {
						t.Fatalf("%s: sources %v,%v share key %d but differ in hops to %v",
							name, prev, n, key, dst)
					}
					if !reflect.DeepEqual(interior(s, prev, dst), interior(s, n, dst)) {
						t.Fatalf("%s: sources %v,%v share key %d but differ in route interior to %v",
							name, prev, n, key, dst)
					}
				}
			}
		})
	}
}

// TestLinkKeysUniquePerTopology walks the full link inventory of every
// registered topology and asserts Key is collision-free — the property
// the transport's global acquisition order (and therefore its deadlock
// freedom) rests on — and that every link a route emits is in the
// inventory.
func TestLinkKeysUniquePerTopology(t *testing.T) {
	for _, name := range Topologies() {
		t.Run(name, func(t *testing.T) {
			s, err := NewTopologyScaled(name, 13)
			if err != nil {
				t.Fatal(err)
			}
			inv := s.Links()
			keys := make(map[uint64]Link, len(inv))
			for _, l := range inv {
				k := l.Key()
				if prev, dup := keys[k]; dup {
					t.Fatalf("%s: key collision %#x: %v vs %v", name, k, prev, l)
				}
				keys[k] = l
				if l.String() == "" {
					t.Fatalf("%s: link %v renders empty", name, l)
				}
			}
			for _, a := range sampleNodes(s) {
				for _, b := range sampleNodes(s) {
					for _, l := range s.Route(a, b) {
						if inInv, ok := keys[l.Key()]; !ok || inInv != l {
							t.Fatalf("%s: route %v->%v uses link %v missing from inventory",
								name, a, b, l)
						}
					}
				}
			}
		})
	}
}

// TestLinkKeyOverflowPanics pins the Key bit-lane guard: endpoint
// indices past a 12-bit lane (or CU/Sw past theirs) must panic rather
// than silently collide with another cable's key.
func TestLinkKeyOverflowPanics(t *testing.T) {
	overflowing := []Link{
		{Kind: LinkTorus, Sw: 0, A: 4096, B: 0},
		{Kind: LinkTorus, Sw: 0, A: 0, B: 4096},
		{Kind: LinkUplink, CU: 511, Sw: 0, A: 0, B: 0},
		{Kind: LinkUplink, CU: 0, Sw: 255, A: 0, B: 0},
	}
	for _, l := range overflowing {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for overflowing link %+v", l)
				}
			}()
			l.Key()
		}()
	}
	// The guard admits the full legal lanes.
	ok := Link{Kind: LinkTorus, Sw: 2, A: 4095, B: 4095}
	if ok.Key() == 0 {
		t.Error("legal link keyed to zero")
	}
}

// TestFatTreeViaInterfaceByteIdentical pins the tentpole's conservation
// law: the "fattree" topology built through the registry produces, for
// every sampled pair, exactly the routes and hop counts of the legacy
// New() constructor.
func TestFatTreeViaInterfaceByteIdentical(t *testing.T) {
	legacy := New()
	viaRegistry, err := NewTopology(DefaultTopology)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range sampleNodes(legacy) {
		for _, b := range sampleNodes(legacy) {
			if got, want := viaRegistry.Hops(a, b), legacy.Hops(a, b); got != want {
				t.Fatalf("hops %v->%v: %d vs legacy %d", a, b, got, want)
			}
			if got, want := viaRegistry.Route(a, b), legacy.Route(a, b); !reflect.DeepEqual(got, want) {
				t.Fatalf("route %v->%v:\n%v\nlegacy:\n%v", a, b, got, want)
			}
		}
	}
	if viaRegistry.TopologyName() != legacy.TopologyName() {
		t.Errorf("names differ: %q vs %q", viaRegistry.TopologyName(), legacy.TopologyName())
	}
}

// TestTreeVariantHopsMatchTaperedTree pins that the ECMP and
// full-bisection variants change cables, never hop counts: Table I
// holds on all three trees.
func TestTreeVariantHopsMatchTaperedTree(t *testing.T) {
	base, _ := NewTopologyScaled("fattree", 13)
	for _, name := range []string{"fattree-ecmp", "fattree-full"} {
		v, err := NewTopologyScaled(name, 13)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range sampleNodes(base) {
			for _, b := range sampleNodes(base) {
				if got, want := v.Hops(a, b), base.Hops(a, b); got != want {
					t.Errorf("%s: hops %v->%v = %d, tapered tree %d", name, a, b, got, want)
				}
			}
		}
	}
}

// TestECMPSpreadsSources pins what the ECMP variant is for: two sources
// on different line crossbars sending to one destination take different
// uplink cables at least somewhere, while the static tree routes purely
// by destination (identical interiors from same-slot crossbars on the
// same switch parity would still differ in slot).
func TestECMPSpreadsSources(t *testing.T) {
	ecmp, _ := NewTopologyScaled("fattree-ecmp", 13)
	dst := NodeID{12, 5}
	// Same switch parity, different crossbars: nodes on crossbars 0 and 2.
	a, b := NodeID{0, 0}, NodeID{0, 16}
	uplinkOf := func(s *System, src NodeID) Link {
		for _, l := range s.Route(src, dst) {
			if l.Kind == LinkUplink && l.Up {
				return l
			}
		}
		t.Fatalf("no uplink in %v->%v", src, dst)
		return Link{}
	}
	ua, ub := uplinkOf(ecmp, a), uplinkOf(ecmp, b)
	if ua.Sw == ub.Sw {
		t.Errorf("ecmp: crossbar-0 and crossbar-2 sources share switch %d toward %v", ua.Sw, dst)
	}
}

// TestFullBisectionUsesBothPlanes pins that the 1:1 tree actually
// spreads routes over both uplink cable planes.
func TestFullBisectionUsesBothPlanes(t *testing.T) {
	full, _ := NewTopologyScaled("fattree-full", 13)
	planes := map[int]bool{}
	src := NodeID{0, 0}
	for n := 0; n < params.NodesPerCU; n++ {
		for _, l := range full.Route(src, NodeID{12, n}) {
			if l.Kind == LinkUplink {
				planes[l.B] = true
			}
		}
	}
	if !planes[0] || !planes[1] {
		t.Errorf("full-bisection tree uses planes %v, want both", planes)
	}
	// And the audit reports the doubled uplink tier.
	a := full.Audit()
	if a.UplinksPerCU != 192 {
		t.Errorf("uplinks per CU = %d, want 192", a.UplinksPerCU)
	}
	if a.TaperRatio >= 1 {
		t.Errorf("taper = %v, want < 1 (full bisection)", a.TaperRatio)
	}
}

// TestTorusDims pins the factorizations the torus builds on.
func TestTorusDims(t *testing.T) {
	cases := []struct{ n, x, y, z int }{
		{3060, 12, 15, 17}, // full machine
		{180, 5, 6, 6},     // one CU
		{360, 6, 6, 10},
		{7, 1, 1, 7},
	}
	for _, c := range cases {
		x, y, z := TorusDims(c.n)
		if x != c.x || y != c.y || z != c.z {
			t.Errorf("TorusDims(%d) = %dx%dx%d, want %dx%dx%d", c.n, x, y, z, c.x, c.y, c.z)
		}
		if x*y*z != c.n {
			t.Errorf("TorusDims(%d) does not factor: %dx%dx%d", c.n, x, y, z)
		}
	}
}

// TestTorusHopsExhaustiveSmall cross-checks torus Hops against a
// breadth-first count of its ring distances on one CU.
func TestTorusHopsExhaustiveSmall(t *testing.T) {
	s, err := NewTopologyScaled("torus", 1)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny, nz := TorusDims(params.NodesPerCU)
	ringDist := func(a, b, size int) int {
		d := ((b-a)%size + size) % size
		if size-d < d {
			return size - d
		}
		return d
	}
	for a := 0; a < params.NodesPerCU; a++ {
		for b := 0; b < params.NodesPerCU; b++ {
			ax, ay, az := a%nx, (a/nx)%ny, a/(nx*ny)
			bx, by, bz := b%nx, (b/nx)%ny, b/(nx*ny)
			want := ringDist(ax, bx, nx) + ringDist(ay, by, ny) + ringDist(az, bz, nz)
			if a != b {
				want++
			}
			if got := s.HopsGlobal(a, b); got != want {
				t.Fatalf("torus hops %d->%d = %d, want %d", a, b, got, want)
			}
		}
	}
}
