package transport

import (
	"fmt"
	"strings"

	"roadrunner/internal/fabric"
)

// PlacementNames are the generated rank→node mappings NamedPlacement
// builds, in the order the sweeps replay them and a placement search
// seeds from them.
var PlacementNames = []string{"block", "strided", "packed"}

// DefaultStride is the strided placement's default step: one full CU,
// so consecutive ranks land in consecutive CUs and every neighbor
// exchange crosses the inter-CU tier.
const DefaultStride = 180

// DefaultPerNode is the packed placement's default density: all four
// Opteron cores of a node host ranks, so neighbors often share a node
// and its HCA.
const DefaultPerNode = 4

// NamedPlacement builds the named placement of ranks on fab: "block"
// and "strided" put every rank on core, "packed" puts perNode ranks on
// each node. The generator's error comes back unchanged, and a name
// outside PlacementNames is an error too.
func NamedPlacement(name string, fab *fabric.System, ranks, stride, perNode, core int) ([]Endpoint, error) {
	switch name {
	case "block":
		return BlockPlacement(fab, ranks, core)
	case "strided":
		return StridedPlacement(fab, ranks, stride, core)
	case "packed":
		return PackedPlacement(fab, ranks, perNode)
	}
	return nil, fmt.Errorf("transport: unknown placement %q (want %s)", name, strings.Join(PlacementNames, ", "))
}

// BlockPlacement places ranks on consecutive nodes in global order, one
// rank per node, all on the given Opteron core. This is the natural MPI
// rank order of Fig. 10's latency map: the stride-1 walk of
// StridedPlacement.
func BlockPlacement(fab *fabric.System, ranks, core int) ([]Endpoint, error) {
	return walk("block", fab, ranks, 1, core)
}

// StridedPlacement places rank i on global node (i*stride) mod the node
// count. HPL's process rows and columns map onto the machine this way: a
// row of a column-major P×Q grid is ranks {r, r+P, r+2P, ...}, i.e. a
// stride-P walk across nodes, which spreads one communicator over many
// CUs.
func StridedPlacement(fab *fabric.System, ranks, stride, core int) ([]Endpoint, error) {
	return walk("strided", fab, ranks, stride, core)
}

// Cores is the number of Opteron cores in a node, each of which can
// issue a rank's traffic: an endpoint's Core lies in 0..Cores-1.
const Cores = 4

// CheckCore reports whether core names one of a node's Opteron cores.
// Its error reads "core N outside 0..3", for callers to prefix.
func CheckCore(core int) error {
	if core < 0 || core >= Cores {
		return fmt.Errorf("core %d outside 0..%d", core, Cores-1)
	}
	return nil
}

// walk places one rank per node by stepping stride nodes at a time,
// wrapping at the fabric's end.
func walk(name string, fab *fabric.System, ranks, stride, core int) ([]Endpoint, error) {
	if err := CheckCore(core); err != nil {
		return nil, fmt.Errorf("transport: %s placement %w", name, err)
	}
	n := fab.Nodes()
	switch {
	case ranks < 0:
		return nil, fmt.Errorf("transport: %s placement of %d ranks", name, ranks)
	case ranks > n:
		return nil, fmt.Errorf("transport: %s placement of %d ranks needs %d nodes, the fabric has %d",
			name, ranks, ranks, n)
	case stride < 1:
		return nil, fmt.Errorf("transport: %s placement stride %d below 1", name, stride)
	}
	out := make([]Endpoint, ranks)
	seen := make([]bool, n)
	g := 0 // global node index, kept below n
	for i := range out {
		for seen[g] {
			// Stride wrapped onto an occupied node: advance to the next
			// free one so every rank still gets its own HCA.
			g = (g + 1) % n
		}
		seen[g] = true
		out[i] = Endpoint{Node: fabric.FromGlobal(g), Core: core}
		g = (g + stride%n) % n
	}
	return out, nil
}

// PackedPlacement places perNode ranks on each node, on cores
// 0..perNode-1, so a communicator mixes near (1, 3) and far (0, 2) HCA
// cores and shares each node's adapter among its local ranks.
func PackedPlacement(fab *fabric.System, ranks, perNode int) ([]Endpoint, error) {
	if perNode < 1 || perNode > Cores {
		return nil, fmt.Errorf("transport: packed placement per-node count %d outside 1..%d", perNode, Cores)
	}
	if ranks < 0 {
		return nil, fmt.Errorf("transport: packed placement of %d ranks", ranks)
	}
	if nodes := (ranks + perNode - 1) / perNode; nodes > fab.Nodes() {
		return nil, fmt.Errorf("transport: packed placement of %d ranks at %d/node needs %d nodes, the fabric has %d",
			ranks, perNode, nodes, fab.Nodes())
	}
	out := make([]Endpoint, ranks)
	for i := range out {
		out[i] = Endpoint{Node: fabric.FromGlobal(i / perNode), Core: i % perNode}
	}
	return out, nil
}

// CheckPlaces checks that every rank sits on a node inside fab and on a
// real Opteron core (CheckCore), and names the first rank that does not.
func CheckPlaces(fab *fabric.System, places []Endpoint) error {
	for r, pl := range places {
		if !fab.Contains(pl.Node) {
			return fmt.Errorf("rank %d placed on %v outside the %d-node fabric", r, pl.Node, fab.Nodes())
		}
		if err := CheckCore(pl.Core); err != nil {
			return fmt.Errorf("rank %d on %w", r, err)
		}
	}
	return nil
}
