package sweep3d

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"roadrunner/internal/cml"
	"roadrunner/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/des_golden.txt")

// desGoldenPath pins the DES run's absolute outputs. The relative pins
// (captured ≡ uncaptured, DES ≡ host solver, reruns) follow any change
// to the rank scheduling on both sides; this file does not.
const desGoldenPath = "testdata/des_golden.txt"

// resultDigest hashes every field of a numerical result bit for bit.
func resultDigest(r *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %x %x %x\n", r.NX, r.NY, r.NZ,
		math.Float64bits(r.Absorbed), math.Float64bits(r.Outflow), math.Float64bits(r.Source))
	for _, v := range r.Phi {
		fmt.Fprintf(h, "%x\n", math.Float64bits(v))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenDESOutputs runs the Sweep3D DES over rank grids that reach
// every CML path — 1x1 (no messages), 2x2 (one Cell socket: EIB DMA),
// 4x4 (two sockets: DaCS within the node), 8x4 (the sweep experiment's
// full node) and 8x8 (two triblades: the full InfiniBand path; the
// canonical capture) — under both CML configurations, plus per-rank
// problems whose boundary messages take the InfiniBand rendezvous leg
// (16 KB) and span several DaCS, HCA and EIB chunks (80 KB). Each case
// records the uncaptured run's iteration time, engine counters and
// result digest, the captured run's, and the sha256 of the captured
// trace's canonical JSONL, and the rendering is compared with the
// checked-in file. Rerun with -update only when a change to the
// simulated model is intended.
func TestGoldenDESOutputs(t *testing.T) {
	type gridCase struct {
		name   string
		cfg    Config
		px, py int
	}
	canon := Config{I: 5, J: 5, K: 40, MK: 10, Angles: 6}
	var cases []gridCase
	for _, g := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {8, 4}, {8, 8}} {
		cases = append(cases, gridCase{"canonical", canon, g[0], g[1]})
	}
	cases = append(cases,
		gridCase{"sweep-experiment", Config{I: 5, J: 5, K: 40, MK: 20, Angles: 6}, 8, 4},
		gridCase{"rendezvous-16KB", Config{I: 8, J: 8, K: 32, MK: 32, Angles: 8}, 2, 2},
		gridCase{"rendezvous-16KB", Config{I: 8, J: 8, K: 32, MK: 32, Angles: 8}, 8, 8},
	)
	big := Config{I: 2, J: 2, K: 512, MK: 256, Angles: 20}
	for _, g := range [][2]int{{2, 2}, {4, 4}, {8, 8}} {
		cases = append(cases, gridCase{"multichunk-80KB", big, g[0], g[1]})
	}
	cmls := []struct {
		name string
		cfg  cml.Config
	}{
		{"current", cml.CurrentSoftware()},
		{"peak-pcie", cml.PeakPCIe()},
	}

	var got bytes.Buffer
	for _, c := range cases {
		for _, m := range cmls {
			fmt.Fprintf(&got, "== %s %+v %dx%d %s (messages ew %d ns %d)\n", c.name, c.cfg, c.px, c.py, m.name,
				c.cfg.EWSurfaceBytes(), c.cfg.NSSurfaceBytes())
			plain, err := RunOnDES(c.cfg, c.px, c.py, m.cfg)
			if err != nil {
				t.Fatalf("%s %dx%d %s: %v", c.name, c.px, c.py, m.name, err)
			}
			fmt.Fprintf(&got, "run time %d engine %+v result %s\n",
				int64(plain.IterationTime), plain.EngineStats, resultDigest(plain.Result))
			res, tr, err := CaptureDES(c.cfg, c.px, c.py, m.cfg)
			if err != nil {
				t.Fatalf("%s %dx%d %s capture: %v", c.name, c.px, c.py, m.name, err)
			}
			var enc bytes.Buffer
			if err := trace.Encode(&enc, tr); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "capture time %d engine %+v result %s\n",
				int64(res.IterationTime), res.EngineStats, resultDigest(res.Result))
			fmt.Fprintf(&got, "trace %d bytes sha256 %x\n", enc.Len(), sha256.Sum256(enc.Bytes()))
		}
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(desGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(desGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", desGoldenPath, got.Len())
		return
	}
	want, err := os.ReadFile(desGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/sweep3d -run TestGoldenDESOutputs -update`): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("DES outputs drifted from %s at line %d:\n  got:  %.200s\n  want: %.200s",
					desGoldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("DES outputs drifted from %s: %d vs %d lines", desGoldenPath, len(gl), len(wl))
	}
}
