package surrogate_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/surrogate"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/price_golden.txt")

// priceGoldenPath pins the uncalibrated model's absolute outputs on the
// 8×8 capture. The relative pins (clone ≡ original, repeat ≡ first call)
// follow any change to the walk on both sides; this file does not.
const priceGoldenPath = "testdata/price_golden.txt"

// TestGoldenPrices prices the three baselines and three seeded
// perturbations of each on every registered topology, with congestion
// on and off and with and without compute, and compares every feature
// (in shortest round-trip form) and every price with the checked-in
// file. Rerun with -update only when a change to the pricing model is
// intended.
func TestGoldenPrices(t *testing.T) {
	tr := testTrace(t)
	policies := []struct {
		name string
		pol  transport.Policy
	}{
		{"congested", transport.Congested()},
		{"off", transport.Policy{}},
	}
	var got bytes.Buffer
	for _, topo := range fabric.Topologies() {
		fab, err := fabric.NewTopology(topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range policies {
			for _, skip := range []bool{false, true} {
				cfg := trace.ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Policy: p.pol, SkipCompute: skip}
				m, err := surrogate.NewReplay(tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "== %s %s skip-compute=%v\n", topo, p.name, skip)
				for k, base := range basePlacements(t, fab, tr.Meta.Ranks) {
					for s := int64(0); s <= 3; s++ {
						places := base
						if s > 0 {
							places = perturb(base, 10*int64(k)+s, int(3*s))
						}
						fmt.Fprintf(&got, "%s/%d price %d features", transport.PlacementNames[k], s, int64(m.Price(places)))
						for _, f := range m.Features(places) {
							fmt.Fprintf(&got, " %s", strconv.FormatFloat(f, 'g', -1, 64))
						}
						got.WriteByte('\n')
					}
				}
				m.Close()
			}
		}
	}
	if *update {
		if err := os.WriteFile(priceGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", priceGoldenPath, got.Len())
		return
	}
	want, err := os.ReadFile(priceGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/surrogate -run TestGoldenPrices -update`): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d drifted from %s:\n got %s\nwant %s", i+1, priceGoldenPath, gl[i], wl[i])
			}
		}
		t.Fatalf("output drifted from %s: %d lines, want %d", priceGoldenPath, len(gl), len(wl))
	}
}
