package fabric

import (
	"fmt"

	"roadrunner/internal/params"
)

// torus is a 3D torus in the BlueGene/L mold the Teraflops-scale
// survey in PAPERS.md contrasts with Roadrunner's fat-tree: one router
// per compute node, six neighbor cables per router (±x, ±y, ±z with
// wraparound), and static dimension-ordered routing — x first, then y,
// then z, each dimension walked in its shortest wrap direction (ties
// broken toward +). Node numbering stays CU-major (NodeID/GlobalID),
// so placements and traces carry over unchanged; the torus coordinates
// are derived from the global index, x-fastest.
//
// Hops counts routers: a route of Manhattan ring distance d crosses
// d+1 routers (the source's router, then one per cable crossed), so
// len(Route) == Hops+1 holds with the node-port cable on each end —
// the same invariant the fat-tree maintains.
type torus struct {
	cus        int
	nx, ny, nz int
}

// newTorus builds a torus over cus*NodesPerCU nodes with the most
// cubic dimension factorization.
func newTorus(cus int) *torus {
	if cus < 1 || cus > params.MaxCUs {
		panic(fmt.Sprintf("fabric: %d CUs outside 1..%d", cus, params.MaxCUs))
	}
	nx, ny, nz := TorusDims(cus * params.NodesPerCU)
	return &torus{cus: cus, nx: nx, ny: ny, nz: nz}
}

// TorusDims factors n into the most cubic x <= y <= z with x*y*z == n:
// among all ordered factorizations it maximizes x, then y. The full
// 3,060-node machine becomes 12 x 15 x 17; one CU's 180 nodes 5 x 6 x 6.
func TorusDims(n int) (x, y, z int) {
	x, y, z = 1, 1, n
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		m := n / a
		for b := a; b*b <= m; b++ {
			if m%b != 0 {
				continue
			}
			if a > x || (a == x && b > y) {
				x, y, z = a, b, m/b
			}
		}
	}
	return x, y, z
}

func (t *torus) Name() string { return "torus" }
func (t *torus) CUs() int     { return t.cus }

func (t *torus) validate(n NodeID) {
	if n.CU < 0 || n.CU >= t.cus || n.Node < 0 || n.Node >= params.NodesPerCU {
		panic(fmt.Sprintf("fabric: node %v outside %d-CU system", n, t.cus))
	}
}

// coords returns the torus coordinates of a global node id, x-fastest.
func (t *torus) coords(g int) (x, y, z int) {
	return g % t.nx, (g / t.nx) % t.ny, g / (t.nx * t.ny)
}

// ringDist returns the shortest ring distance and its direction (+1 or
// -1; ties toward +) from coordinate a to b on a ring of the given size.
func ringDist(a, b, size int) (dist, dir int) {
	fwd := ((b-a)%size + size) % size
	if fwd == 0 {
		return 0, 1
	}
	if back := size - fwd; back < fwd {
		return back, -1
	}
	return fwd, 1
}

// Hops returns the router count of the dimension-ordered route:
// Manhattan ring distance + 1 for distinct nodes (the source router
// plus one per cable crossed).
func (t *torus) Hops(a, b NodeID) int {
	t.validate(a)
	t.validate(b)
	if a == b {
		return 0
	}
	ax, ay, az := t.coords(a.GlobalID())
	bx, by, bz := t.coords(b.GlobalID())
	dx, _ := ringDist(ax, bx, t.nx)
	dy, _ := ringDist(ay, by, t.ny)
	dz, _ := ringDist(az, bz, t.nz)
	return dx + dy + dz + 1
}

func (t *torus) MaxRouteLen() int { return t.nx/2 + t.ny/2 + t.nz/2 + 2 }

// CacheKey is the source node itself: a torus router is per-node, so
// no two sources share route interiors and the cache is per-node dense.
func (t *torus) CacheKey(src NodeID) int { return src.GlobalID() }
func (t *torus) CacheRows() int          { return t.cus * params.NodesPerCU }

// PairClass names torus routes by their ring distance.
func (t *torus) PairClass(a, b NodeID) string {
	t.validate(a)
	t.validate(b)
	if a == b {
		return "self"
	}
	return fmt.Sprintf("torus-dist-%d", t.Hops(a, b)-1)
}

// RouteInto appends the dimension-ordered route: node port up, one
// LinkTorus per cable crossed (x, then y, then z), node port down.
func (t *torus) RouteInto(buf []Link, a, b NodeID) []Link {
	t.validate(a)
	t.validate(b)
	if a == b {
		return buf
	}
	buf = append(buf, Link{Kind: LinkNodePort, Up: true, CU: a.CU, Sw: -1, A: a.Node, B: 0})
	ax, ay, az := t.coords(a.GlobalID())
	bx, by, bz := t.coords(b.GlobalID())
	cur := [3]int{ax, ay, az}
	to := [3]int{bx, by, bz}
	sizes := [3]int{t.nx, t.ny, t.nz}
	for d := 0; d < 3; d++ {
		size := sizes[d]
		dist, dir := ringDist(cur[d], to[d], size)
		for step := 0; step < dist; step++ {
			next := ((cur[d]+dir)%size + size) % size
			// A cable is identified by its lower-coordinate router (the
			// wrap cable by size-1); Up selects the + direction channel.
			lower, up := cur[d], true
			if dir < 0 {
				lower, up = next, false
			}
			buf = append(buf, Link{Kind: LinkTorus, Up: up, CU: -1, Sw: d, A: lower, B: t.perp(d, cur)})
			cur[d] = next
		}
	}
	return append(buf, Link{Kind: LinkNodePort, Up: false, CU: b.CU, Sw: -1, A: b.Node, B: 0})
}

// perp flattens the two coordinates perpendicular to dimension d into
// the cable's row index (Link.B).
func (t *torus) perp(d int, c [3]int) int {
	switch d {
	case 0:
		return c[1] + c[2]*t.ny
	case 1:
		return c[0] + c[2]*t.nx
	default:
		return c[0] + c[1]*t.nx
	}
}

// Links enumerates the inventory: two node-port channels per node and,
// per dimension, one + cable per router in both directions.
func (t *torus) Links() []Link {
	var links []Link
	for cu := 0; cu < t.cus; cu++ {
		for n := 0; n < params.NodesPerCU; n++ {
			links = append(links,
				Link{Kind: LinkNodePort, Up: true, CU: cu, Sw: -1, A: n, B: 0},
				Link{Kind: LinkNodePort, Up: false, CU: cu, Sw: -1, A: n, B: 0})
		}
	}
	sizes := [3]int{t.nx, t.ny, t.nz}
	total := t.cus * params.NodesPerCU
	for d := 0; d < 3; d++ {
		if sizes[d] == 1 {
			continue // a 1-wide dimension has no cables
		}
		rows := total / sizes[d]
		for c := 0; c < sizes[d]; c++ {
			for row := 0; row < rows; row++ {
				links = append(links,
					Link{Kind: LinkTorus, Up: true, CU: -1, Sw: d, A: c, B: row},
					Link{Kind: LinkTorus, Up: false, CU: -1, Sw: d, A: c, B: row})
			}
		}
	}
	return links
}
