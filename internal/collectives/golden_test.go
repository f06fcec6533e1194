package collectives

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt")

// collGoldenPath pins the collectives' absolute outputs. The relative
// pins (RunMany ≡ Run, unqueued congested ≡ unrouted, reruns) follow any
// change to the rank scheduling on both sides; this file does not.
const collGoldenPath = "testdata/golden.txt"

// writeCollGolden renders one run: completion times, traffic, engine
// counters, a census summary with its top links (the top uplinks as a
// digest of every field), and a digest of every rank's final payload.
func writeCollGolden(w *bytes.Buffer, label string, r *Result) {
	fmt.Fprintf(w, "== %s\n", label)
	fmt.Fprintf(w, "time %d min %d messages %d wire %d\n",
		int64(r.Time), int64(r.MinTime), r.Messages, int64(r.WireBytes))
	fmt.Fprintf(w, "engine %+v\n", r.EngineStats)
	if c := r.Congestion; c == nil {
		fmt.Fprintf(w, "census none\n")
	} else {
		fmt.Fprintf(w, "census horizon %d links %d queued %d wait %d peak %d uplink-queued %d uplink-wait %d\n",
			int64(c.Horizon), c.Links, c.Queued, int64(c.TotalWait), c.PeakHeld,
			c.UplinkQueued, int64(c.UplinkWait))
		for _, u := range c.Top {
			fmt.Fprintf(w, "  top %s msgs %d bytes %d wait %d busy %d\n",
				u.Link, u.Messages, int64(u.Bytes), int64(u.Wait), int64(u.Busy))
		}
		h := sha256.New()
		for _, u := range c.TopUplinks {
			fmt.Fprintf(h, "%+v\n", u)
		}
		fmt.Fprintf(w, "  uplinks %d sha256 %x\n", len(c.TopUplinks), h.Sum(nil))
	}
	h := sha256.New()
	for _, vec := range r.Data {
		fmt.Fprintf(h, "%d:", len(vec))
		for _, v := range vec {
			fmt.Fprintf(h, " %x", math.Float64bits(v))
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(w, "data sha256 %x\n", h.Sum(nil))
}

// TestGoldenCollectiveOutputs runs every algorithm over block placements
// on the fat tree and the torus — rank counts from one to 64, the
// unrouted and congested policies, and sizes from zero through eager,
// rendezvous and a payload of several HCA chunks — plus packed (four
// ranks per node, near and far cores) and strided placements, broadcasts
// from a non-zero root and a congested 360-node alltoall over a seeded
// permutation, and compares the rendering with the checked-in file.
// Rerun with -update only when a change to the simulated model is
// intended.
func TestGoldenCollectiveOutputs(t *testing.T) {
	policies := []struct {
		name string
		pol  transport.Policy
	}{
		{"unrouted", transport.Policy{}},
		{"congested", transport.Congested()},
	}
	sizes := []units.Size{0, 4 * units.KB, 64 * units.KB, units.MB}
	var got bytes.Buffer
	run := func(label string, cfg Config, op Op, size units.Size) {
		t.Helper()
		r, err := Run(cfg, op, size)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		writeCollGolden(&got, label, r)
	}
	for _, topo := range []string{"fattree", "torus"} {
		fab, err := fabric.NewTopologyScaled(topo, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range policies {
			base := Config{Fabric: fab, Profile: ib.OpenMPI(), Congestion: p.pol}
			for _, op := range Ops() {
				for _, n := range []int{1, 2, 3, 5, 8, 13, 64} {
					for _, size := range sizes {
						cfg := base
						cfg.Places = BlockPlacement(fab, n, 1)
						run(fmt.Sprintf("%s %s block %s n=%d size=%d", topo, p.name, op, n, int64(size)), cfg, op, size)
					}
				}
				for _, n := range []int{13, 64} {
					for _, size := range []units.Size{4 * units.KB, 64 * units.KB} {
						cfg := base
						cfg.Places = PackedPlacement(fab, n, 4)
						run(fmt.Sprintf("%s %s packed4 %s n=%d size=%d", topo, p.name, op, n, int64(size)), cfg, op, size)
						cfg.Places = StridedPlacement(fab, n, 23, 0)
						run(fmt.Sprintf("%s %s strided23 %s n=%d size=%d", topo, p.name, op, n, int64(size)), cfg, op, size)
					}
				}
			}
			for _, size := range sizes {
				cfg := base
				cfg.Places = PackedPlacement(fab, 13, 4)
				cfg.Root = 5
				run(fmt.Sprintf("%s %s packed4 root=5 %s n=13 size=%d", topo, p.name, BcastBinomial, int64(size)), cfg, BcastBinomial, size)
			}
		}
	}

	// The benchmark's op: a congested 64 KB alltoall over 360 nodes on a
	// seeded random permutation.
	cfg, err := CongestedConfig(360)
	if err != nil {
		t.Fatal(err)
	}
	for r, g := range rand.New(rand.NewSource(11)).Perm(360) {
		cfg.Places[r].Node = fabric.FromGlobal(g)
	}
	run("fattree congested perm(seed 11) alltoall-pairwise n=360 size=65536", cfg, AlltoallPairwise, 64*units.KB)

	if *update {
		if err := os.MkdirAll(filepath.Dir(collGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(collGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", collGoldenPath, got.Len())
		return
	}
	want, err := os.ReadFile(collGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/collectives -run TestGoldenCollectiveOutputs -update`): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("collective outputs drifted from %s at line %d:\n  got:  %.200s\n  want: %.200s",
					collGoldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("collective outputs drifted from %s: %d vs %d lines", collGoldenPath, len(gl), len(wl))
	}
}
