package scenario

import (
	"fmt"
	"strings"
	"sync/atomic"

	"roadrunner/internal/fabric"
)

// The scenario sweeps build their fabrics through this knob, so the
// rrexp CLI's -topology flag can re-run the whole evaluation on an
// alternative interconnect (a torus, a full-bisection tree). The
// default is the paper's tapered fat-tree; every paper-vs-measured
// check in the experiments assumes it, so non-default runs are
// what-if sweeps, not reproduction runs. The topo-compare experiment
// ignores the knob: it always runs all registered fabrics side by side.
var topoName atomic.Pointer[string]

// SetTopology selects the fabric topology the sweeps run on (a
// fabric.Topologies name; "" restores the default fat-tree).
func SetTopology(name string) error {
	if name == "" {
		name = fabric.DefaultTopology
	}
	if fabric.TopologyDescription(name) == "" {
		return fmt.Errorf("unknown topology %q: have %s", name, strings.Join(fabric.Topologies(), ", "))
	}
	topoName.Store(&name)
	return nil
}

// TopologyName returns the fabric topology the sweeps run on.
func TopologyName() string {
	if p := topoName.Load(); p != nil {
		return *p
	}
	return fabric.DefaultTopology
}

// newFabric builds the full-scale fabric on the selected topology.
func newFabric() *fabric.System {
	fab, err := fabric.NewTopology(TopologyName())
	if err != nil {
		panic(err) // SetTopology validated the name
	}
	return fab
}
