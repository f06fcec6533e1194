// Package fabric models Roadrunner's InfiniBand plant at the crossbar
// level: the Voltaire ISR 9288 switch inside each Compute Unit (CU), the
// eight inter-CU switches forming the 2:1 reduced fat tree, and the exact
// wiring the paper describes in §II.B-C. Hop counts (Table I), the
// latency map of Fig. 10 and the structural audit of Fig. 2 all derive
// from routing over this graph.
//
// Structure, following the paper:
//
//   - Each CU's ISR 9288 contains 36 24-port crossbars: 24 "line"
//     crossbars carrying external ports and 12 "spine" crossbars forming
//     the second level. Line crossbar k carries 8 external node/IO ports,
//     4 external uplink ports and 12 links to the spines (one per spine).
//     22 line crossbars carry 8 compute nodes; one carries 4 compute
//     nodes + 4 I/O nodes; one carries 8 I/O nodes.
//   - 96 uplinks per CU spread over the 8 inter-CU switches, 12 per
//     switch. Line crossbar k's four uplinks go to the four switches of
//     parity k mod 2 (switches k%2, k%2+2, k%2+4, k%2+6), landing on
//     crossbar k/2 of the switch's CU-facing level.
//   - Each inter-CU switch has three levels of 12 crossbars: the first
//     level serves CUs 1-12 (one port per CU per crossbar), the last
//     level serves CUs 13-17, and the middle level connects the two.
//
// With this wiring a message from node 0 reaches: its 7 crossbar
// neighbours in 1 hop; the rest of its CU in 3; the same-index crossbar
// of CUs 2-12 in 3 (sharing a first-level switch crossbar); other nodes
// of CUs 2-12 in 5; the same-index crossbar of CUs 13-17 in 5; and the
// rest of CUs 13-17 in 7 — exactly Table I.
package fabric

import (
	"fmt"

	"roadrunner/internal/params"
	"roadrunner/internal/units"
)

// NodeID identifies a compute node: CU index (0-based) and node index
// within the CU (0..179).
type NodeID struct {
	CU   int
	Node int
}

// GlobalID returns the node's system-wide index (0..3059), numbering
// nodes CU-major as Fig. 10 does.
func (n NodeID) GlobalID() int { return n.CU*params.NodesPerCU + n.Node }

// FromGlobal converts a system-wide index back to a NodeID.
func FromGlobal(g int) NodeID {
	return NodeID{CU: g / params.NodesPerCU, Node: g % params.NodesPerCU}
}

// String renders the node as CUx/ny.
func (n NodeID) String() string { return fmt.Sprintf("CU%d/n%d", n.CU+1, n.Node) }

// System is the full interconnect model: a Topology implementation
// (the default fat-tree, a torus, ...) plus the system-wide accessors
// the paper's metrics derive from. Construct with New, NewScaled or
// NewTopology; the zero value has no topology and panics on use.
type System struct {
	CUs  int // number of CUs (17 in Roadrunner; smaller for tests)
	topo Topology
}

// New returns the full 17-CU Roadrunner fabric (the default fat-tree).
func New() *System { return NewScaled(params.NumCUs) }

// NewScaled returns a default-fat-tree fabric with the given CU count
// (1..24), for experiments below full scale.
func NewScaled(cus int) *System {
	return &System{CUs: cus, topo: newTree(cus, DefaultTopology, 1, false)}
}

// Nodes returns the total compute-node count.
func (s *System) Nodes() int { return s.CUs * params.NodesPerCU }

// Contains reports whether the node lies inside the fabric. It bounds
// the CU index directly: GlobalID's CU*NodesPerCU product overflows int
// for absurd CU values and would wrap negative past a Nodes() compare.
func (s *System) Contains(n NodeID) bool {
	return n.CU >= 0 && n.CU < s.CUs && n.Node >= 0 && n.Node < params.NodesPerCU
}

// nodesPerLineXbar is how many compute nodes share one line crossbar.
const nodesPerLineXbar = 8

// LineXbar returns the index (0..23) of the CU line crossbar a node is
// attached to. Nodes fill crossbars 0..21 with 8 each; crossbar 22 takes
// the last 4 compute nodes (plus 4 I/O nodes); crossbar 23 is all I/O.
func LineXbar(node int) int { return node / nodesPerLineXbar }

// LineXbarsPerCU is the number of line crossbars carrying compute nodes
// in one CU (the 24th crossbar is I/O-only and never a route endpoint).
const LineXbarsPerCU = (params.NodesPerCU-1)/nodesPerLineXbar + 1

// XbarID returns the system-wide index of the node's line crossbar,
// numbering compute-node crossbars CU-major. Routes leaving a crossbar
// depend only on this index and the destination (every node of one
// crossbar shares the spine/uplink choice and the hop count to any
// other node), which is what makes a crossbar-granular route cache
// exact; see transport.Net.
func (n NodeID) XbarID() int { return n.CU*LineXbarsPerCU + LineXbar(n.Node) }

// UplinkSwitches returns the four inter-CU switches line crossbar k
// connects to (parity wiring: crossbar k uses the switches of parity
// k mod 2).
func UplinkSwitches(k int) [4]int {
	p := k % 2
	return [4]int{p, p + 2, p + 4, p + 6}
}

// SwitchLevelXbar returns the CU-facing crossbar index (0..11) that line
// crossbar k's uplink lands on inside an inter-CU switch. Two line
// crossbars of the same index in different CUs share this crossbar —
// the mechanism behind Table I's 3-hop shortcuts and Fig. 10's dips.
func SwitchLevelXbar(k int) int { return k / 2 }

// firstSide reports whether a CU (0-based) is on the first (CUs 1-12)
// side of the inter-CU switches.
func firstSide(cu int) bool { return cu < params.FirstSideCUs }

// Hops returns the number of crossbars (routers) a minimal route
// between two compute nodes traverses (the paper's Table I metric on
// the fat-tree; ring distance + 1 on the torus).
func (s *System) Hops(a, b NodeID) int { return s.topo.Hops(a, b) }

// HopsGlobal returns Hops between two system-wide node indices, for
// callers that address nodes globally (rrsim's hop query, placement
// tools) rather than by (CU, node).
func (s *System) HopsGlobal(a, b int) int {
	return s.Hops(FromGlobal(a), FromGlobal(b))
}

// PairClass names the destination class of the route from a to b. On
// the fat-tree family these are the Table I classes: "self",
// "same-xbar", "same-cu", "same-side-same-xbar", "same-side-other-xbar",
// "cross-side-same-xbar" or "cross-side-other-xbar"; the class
// determines the hop count, and the audit tests cross-check against
// ClassHops. Other topologies name classes their own way (the torus by
// ring distance).
func (s *System) PairClass(a, b NodeID) string { return s.topo.PairClass(a, b) }

// ClassHops maps each PairClass name to its crossbar hop count (the
// Table I metric). The audit tests cross-check Hops against this table
// for every node pair.
var ClassHops = map[string]int{
	"self":                  0,
	"same-xbar":             1,
	"same-cu":               3,
	"same-side-same-xbar":   3,
	"same-side-other-xbar":  5,
	"cross-side-same-xbar":  5,
	"cross-side-other-xbar": 7,
}

// HopLatency returns the switching latency of a route: 220 ns per
// crossbar hop.
func (s *System) HopLatency(a, b NodeID) units.Time {
	return units.Time(s.Hops(a, b)) * params.SwitchHopLatency
}

// HopCensus tallies destinations from a source node by hop count and
// destination class, reproducing Table I.
type HopCensus struct {
	Self             int
	SameXbar         int
	SameCU           int
	NearCUsSameXbar  int // CUs 2-12, same crossbar index: 3 hops
	NearCUsOtherXbar int // CUs 2-12, different crossbar: 5 hops
	FarCUsSameXbar   int // CUs 13-17, same crossbar: 5 hops
	FarCUsOtherXbar  int // CUs 13-17, different crossbar: 7 hops
	Total            int
	TotalHops        int
	MeanHops         float64
	HopCounts        map[int]int
}

// Census computes the hop census from a source node over all compute
// nodes (including the source itself). The Table I class fields are
// fat-tree terms; on other topologies they stay zero (except Self) and
// the hop-count tally carries the census.
func (s *System) Census(src NodeID) HopCensus {
	c := HopCensus{HopCounts: map[int]int{}}
	_, isTree := s.topo.(*tree)
	for cu := 0; cu < s.CUs; cu++ {
		for n := 0; n < params.NodesPerCU; n++ {
			dst := NodeID{cu, n}
			h := s.Hops(src, dst)
			c.Total++
			c.TotalHops += h
			c.HopCounts[h]++
			switch {
			case dst == src:
				c.Self++
			case !isTree:
				// Non-fat-tree: no crossbar/side classes to tally.
			case cu == src.CU && LineXbar(n) == LineXbar(src.Node):
				c.SameXbar++
			case cu == src.CU:
				c.SameCU++
			case firstSide(cu) == firstSide(src.CU) && LineXbar(n) == LineXbar(src.Node):
				c.NearCUsSameXbar++
			case firstSide(cu) == firstSide(src.CU):
				c.NearCUsOtherXbar++
			case LineXbar(n) == LineXbar(src.Node):
				c.FarCUsSameXbar++
			default:
				c.FarCUsOtherXbar++
			}
		}
	}
	c.MeanHops = float64(c.TotalHops) / float64(c.Total)
	return c
}

// Audit summarises the structural invariants of the fabric (the Fig. 2
// quantities): port counts, uplinks, and taper.
type Audit struct {
	CUs                int
	NodesPerCU         int
	IONodesPerCU       int
	LineXbarsPerCU     int
	SpineXbarsPerCU    int
	ExternalPortsPerCU int // node + I/O ports in use
	UplinksPerCU       int
	InterCUSwitches    int
	UplinksPerCUPerSw  int
	DownLinksTotal     int
	UpLinksTotal       int
	TaperRatio         float64 // down:up bandwidth ratio (2:1 in Roadrunner)
	MaxCUsSupported    int
}

// Audit returns the structural audit of the system. The quantities are
// fat-tree terms; on the full-bisection variant the uplink counts
// double and the taper falls below 1 (more uplink than node bandwidth),
// and on the torus the audit reports the tapered-tree reference plant
// (use Topology/TopologyName to tell fabrics apart).
func (s *System) Audit() Audit {
	planes := 1
	if tr, ok := s.topo.(*tree); ok {
		planes = tr.planes
	}
	down := s.CUs * (params.NodesPerCU + params.IONodesPerCU)
	up := planes * s.CUs * params.UplinksPerCUSwitch * params.InterCUSwitches
	a := Audit{
		CUs:                s.CUs,
		NodesPerCU:         params.NodesPerCU,
		IONodesPerCU:       params.IONodesPerCU,
		LineXbarsPerCU:     params.SwitchLowerXbars,
		SpineXbarsPerCU:    params.SwitchUpperXbars,
		ExternalPortsPerCU: params.NodesPerCU + params.IONodesPerCU,
		UplinksPerCU:       planes * params.UplinksPerCUSwitch * params.InterCUSwitches,
		InterCUSwitches:    params.InterCUSwitches,
		UplinksPerCUPerSw:  planes * params.UplinksPerCUSwitch,
		DownLinksTotal:     down,
		UpLinksTotal:       up,
		TaperRatio:         float64(params.NodesPerCU) / float64(planes*params.UplinksPerCUSwitch*params.InterCUSwitches),
		MaxCUsSupported:    params.MaxCUs,
	}
	return a
}
