package transport

import (
	"strings"
	"testing"

	"roadrunner/internal/fabric"
)

// TestPlacementRejectsBadInput: every generator answers an input it
// cannot place with an error naming the bad value, never a panic.
func TestPlacementRejectsBadInput(t *testing.T) {
	fab := fabric.NewScaled(1) // 180 nodes
	cases := []struct {
		name                        string
		ranks, stride, perNode, cor int
		want                        string
	}{
		{"block", 181, 0, 0, 1, "needs 181 nodes, the fabric has 180"},
		{"block", -1, 0, 0, 1, "-1 ranks"},
		{"block", 8, 0, 0, 4, "core 4 outside 0..3"},
		{"block", 8, 0, 0, -1, "core -1 outside 0..3"},
		{"strided", 181, 7, 0, 1, "needs 181 nodes, the fabric has 180"},
		{"strided", 8, 0, 0, 1, "stride 0 below 1"},
		{"strided", 8, -5, 0, 1, "stride -5 below 1"},
		{"strided", 8, 7, 0, 9, "core 9 outside 0..3"},
		{"packed", 721, 0, 4, 1, "needs 181 nodes, the fabric has 180"},
		{"packed", 8, 0, 0, 1, "per-node count 0 outside 1..4"},
		{"packed", 8, 0, 5, 1, "per-node count 5 outside 1..4"},
		{"packed", -3, 0, 2, 1, "-3 ranks"},
		{"diagonal", 8, 1, 1, 1, `unknown placement "diagonal"`},
	}
	for _, tc := range cases {
		places, err := NamedPlacement(tc.name, fab, tc.ranks, tc.stride, tc.perNode, tc.cor)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s ranks %d stride %d per-node %d core %d: %d places, error %v; want one mentioning %q",
				tc.name, tc.ranks, tc.stride, tc.perNode, tc.cor, len(places), err, tc.want)
		}
	}
}

// TestPlacementsFillTheFabric: each generator accepts its largest input
// and every mapping it returns passes CheckPlaces.
func TestPlacementsFillTheFabric(t *testing.T) {
	fab := fabric.NewScaled(1)
	for _, tc := range []struct {
		name                         string
		ranks, stride, perNode, core int
	}{
		{"block", 180, 0, 0, 3},
		{"strided", 180, 7, 0, 0},
		{"strided", 180, 1 << 62, 0, 2},
		{"packed", 720, 0, 4, 0},
		{"packed", 181, 0, 2, 0},
	} {
		places, err := NamedPlacement(tc.name, fab, tc.ranks, tc.stride, tc.perNode, tc.core)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if len(places) != tc.ranks {
			t.Errorf("%+v: %d places", tc, len(places))
		}
		if err := CheckPlaces(fab, places); err != nil {
			t.Errorf("%+v: %v", tc, err)
		}
	}
}

func TestStridedPlacementSpansCUs(t *testing.T) {
	fab := fabric.New()
	places, err := StridedPlacement(fab, 60, 51, 1)
	if err != nil {
		t.Fatal(err)
	}
	cus := map[int]bool{}
	nodes := map[fabric.NodeID]bool{}
	for _, pl := range places {
		cus[pl.Node.CU] = true
		if nodes[pl.Node] {
			t.Fatalf("node %v reused", pl.Node)
		}
		nodes[pl.Node] = true
	}
	if len(cus) < 17 {
		t.Errorf("stride-51 row spans %d CUs, want all 17", len(cus))
	}
}

// TestStridedPlacementWrapsToFreeNodes: a stride that divides the node
// count comes back to an occupied node and moves on to the next free
// one, so every rank still gets a node of its own.
func TestStridedPlacementWrapsToFreeNodes(t *testing.T) {
	fab := fabric.NewScaled(1)
	places, err := StridedPlacement(fab, 180, 90, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 90, 1, 91, 2, 92} {
		if g := places[i].Node.GlobalID(); g != want {
			t.Errorf("rank %d on node %d, want %d", i, g, want)
		}
	}
	seen := map[fabric.NodeID]bool{}
	for _, pl := range places {
		if seen[pl.Node] {
			t.Fatalf("node %v reused", pl.Node)
		}
		seen[pl.Node] = true
	}
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy("on"); err != nil || p != Congested() {
		t.Errorf("on: %+v, %v", p, err)
	}
	if p, err := ParsePolicy("off"); err != nil || p != (Policy{}) {
		t.Errorf("off: %+v, %v", p, err)
	}
	for _, s := range []string{"", "On", "yes"} {
		if _, err := ParsePolicy(s); err == nil {
			t.Errorf("%q accepted", s)
		}
	}
}
