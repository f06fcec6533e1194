package fabric

import (
	"fmt"
	"sort"

	"roadrunner/internal/params"
)

// Topology is the pluggable fabric model behind a System: the routing
// and inventory contract every interconnect implementation satisfies.
// The 2008-era papers argued tapered fat-trees against 3D tori and
// static destination-hashed routing against adaptive spreading; this
// interface is what lets those fabrics swap under the same transport,
// collectives and replay layers.
//
// Contract (pinned per topology by the invariant suite in
// topology_test.go):
//
//   - Routing is minimal and consistent with Hops: for a != b,
//     len(RouteInto(nil, a, b)) == Hops(a, b) + 1, with a node-port
//     cable first and last; for a == b the route is empty and Hops 0.
//   - Routing is static and deterministic: the same (a, b) always
//     yields the same link sequence, the way InfiniBand's linear
//     forwarding tables behaved on the real machines.
//   - Every Link a route emits appears in Links(), and every link of
//     Links() has a distinct Key() — the global acquisition order the
//     transport's deadlock-freedom rests on.
//   - CacheKey is exact: two sources with equal CacheKey produce, for
//     every destination, routes with identical fabric-interior links
//     and identical hop counts. CacheRows bounds CacheKey + 1.
type Topology interface {
	// Name returns the registry name ("fattree", "torus", ...).
	Name() string
	// CUs returns the CU count; nodes stay CU-major NodeIDs on every
	// topology so placements and traces carry across fabrics.
	CUs() int
	// Hops counts the crossbars (routers) a minimal route traverses.
	Hops(a, b NodeID) int
	// RouteInto appends the directed link sequence of the route to buf.
	RouteInto(buf []Link, a, b NodeID) []Link
	// MaxRouteLen bounds len(RouteInto(nil, a, b)) over all pairs.
	MaxRouteLen() int
	// CacheKey returns the route-cache row of a source node: all
	// sources sharing a key share every route interior (see contract).
	CacheKey(src NodeID) int
	// CacheRows returns the cache row count (CacheKey < CacheRows).
	CacheRows() int
	// PairClass names the destination class of the (a, b) route.
	PairClass(a, b NodeID) string
	// Links enumerates every directed link channel of the plant.
	Links() []Link
}

// DefaultTopology is the fabric every legacy constructor builds: the
// paper's 2:1-tapered fat-tree with static destination-hashed routing.
const DefaultTopology = "fattree"

// topologyBuilders registers every selectable fabric, in the order
// Topologies reports them.
var topologyBuilders = []struct {
	name  string
	desc  string
	build func(cus int) Topology
}{
	{"fattree", "2:1-tapered fat-tree, static destination-hashed routing (Roadrunner §II.B-C)",
		func(cus int) Topology { return newTree(cus, "fattree", 1, false) }},
	{"fattree-ecmp", "tapered fat-tree with ECMP-style spreading: routing hashes mix the source crossbar",
		func(cus int) Topology { return newTree(cus, "fattree-ecmp", 1, true) }},
	{"fattree-full", "full-bisection (1:1) fat-tree: doubled uplink cable planes per inter-CU switch",
		func(cus int) Topology { return newTree(cus, "fattree-full", 2, false) }},
	{"torus", "3D torus (BlueGene/L-class), dimension-ordered shortest-wrap routing",
		func(cus int) Topology { return newTorus(cus) }},
}

// Topologies returns the registered topology names, default first.
func Topologies() []string {
	names := make([]string, len(topologyBuilders))
	for i, b := range topologyBuilders {
		names[i] = b.name
	}
	return names
}

// TopologyDescription returns the one-line description of a registered
// topology ("" for unknown names).
func TopologyDescription(name string) string {
	for _, b := range topologyBuilders {
		if b.name == name {
			return b.desc
		}
	}
	return ""
}

// NewTopology returns the full-scale (17-CU) system on the named
// topology. The "fattree" system is identical to New() — same routes,
// same link keys, same event sequences.
func NewTopology(name string) (*System, error) {
	return NewTopologyScaled(name, params.NumCUs)
}

// NewTopologyScaled is NewTopology with the given CU count (1..24).
func NewTopologyScaled(name string, cus int) (*System, error) {
	if cus < 1 || cus > params.MaxCUs {
		return nil, fmt.Errorf("fabric: %d CUs outside 1..%d", cus, params.MaxCUs)
	}
	for _, b := range topologyBuilders {
		if b.name == name {
			return &System{CUs: cus, topo: b.build(cus)}, nil
		}
	}
	return nil, fmt.Errorf("fabric: unknown topology %q (have %v)", name, Topologies())
}

// Topology returns the system's topology implementation.
func (s *System) Topology() Topology { return s.topo }

// TopologyName returns the registry name of the system's topology.
func (s *System) TopologyName() string { return s.topo.Name() }

// MaxRouteLen bounds the link count of any route on this system; size
// RouteInto buffers with it to route without allocating.
func (s *System) MaxRouteLen() int { return s.topo.MaxRouteLen() }

// CacheKey returns the route-cache row of a source node (see the
// Topology contract); transport.Net keys its dense route cache with it.
func (s *System) CacheKey(src NodeID) int { return s.topo.CacheKey(src) }

// CacheRows returns the route-cache row count.
func (s *System) CacheRows() int { return s.topo.CacheRows() }

// Links enumerates every directed link channel of the plant, sorted by
// Key. The key-uniqueness and inventory tests run over it.
func (s *System) Links() []Link {
	links := s.topo.Links()
	sort.Slice(links, func(i, j int) bool { return links[i].Key() < links[j].Key() })
	return links
}
