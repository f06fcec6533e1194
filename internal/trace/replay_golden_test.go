package trace_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
)

// replayGoldenPath pins the replay's absolute outputs on the 64-rank
// bench capture. The relative pins (Evaluator ≡ fresh Replay,
// EvaluateMany ≡ serial) follow any change to the rank walker on both
// sides; this file does not.
const replayGoldenPath = "testdata/replay_golden.txt"

// goldenPlacements are the pinned rank→node mappings for a 64-rank trace
// on the full machine: one rank per node, a stride that spans CUs, four
// ranks per node in core order, and four ranks per node on nodes
// scattered across CUs with the cores shuffled within each node.
func goldenPlacements(fab *fabric.System, ranks int) ([]string, [][]transport.Endpoint) {
	names := []string{"block", "strided", "packed", "mixed4"}
	out := make([][]transport.Endpoint, len(names))
	for k := range out {
		out[k] = make([]transport.Endpoint, ranks)
	}
	for i := 0; i < ranks; i++ {
		out[0][i] = transport.Endpoint{Node: fabric.FromGlobal(i), Core: 1}
		out[1][i] = transport.Endpoint{Node: fabric.FromGlobal((i * 97) % fab.Nodes()), Core: 1}
		out[2][i] = transport.Endpoint{Node: fabric.FromGlobal(i / 4), Core: i % 4}
		out[3][i] = transport.Endpoint{Node: fabric.FromGlobal((i/4*211 + 37) % fab.Nodes()), Core: (i + i/4) % 4}
	}
	return names, out
}

// writeGolden renders one replay result: makespan and per-rank finish,
// transport and engine counters, a census summary and a digest of every
// send's timing.
func writeGolden(w *bytes.Buffer, label string, r *trace.ReplayResult) {
	fmt.Fprintf(w, "== %s\n", label)
	fmt.Fprintf(w, "makespan %d\nfinish", int64(r.Time))
	for _, f := range r.RankFinish {
		fmt.Fprintf(w, " %d", int64(f))
	}
	fmt.Fprintf(w, "\nmessages %d wire %d\n", r.Messages, int64(r.WireBytes))
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
	}
	h := sha256.New()
	for _, s := range r.Sends {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d\n", s.SrcRank, s.DstRank, s.Tag, int64(s.Size),
			int64(s.SendStart), int64(s.SendEnd), int64(s.Delivered))
	}
	fmt.Fprintf(w, "sends %d sha256 %x\n", len(r.Sends), h.Sum(nil))
}

// TestGoldenReplayOutputs replays the bench capture under both policies
// (congested, unrouted) with and without compute, over four placements,
// on one pooled Evaluator per configuration (so the first placement
// runs the construction path and the rest the reset path), and compares
// the rendering with the checked-in file. EvaluateMany at two workers
// must render the same bytes. Rerun with -update only when a change to
// the simulated model is intended.
func TestGoldenReplayOutputs(t *testing.T) {
	tr, err := benchOnce()
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New()
	names, placements := goldenPlacements(fab, tr.Meta.Ranks)
	policies := []struct {
		name string
		pol  transport.Policy
	}{
		{"congested", transport.Congested()},
		{"unrouted", transport.Policy{}},
	}
	var got bytes.Buffer
	for _, p := range policies {
		for _, skip := range []bool{false, true} {
			cfg := trace.ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Policy: p.pol,
				SkipCompute: skip, Observe: trace.ObserveAll}
			label := fmt.Sprintf("%s skip-compute=%v", p.name, skip)
			ev, err := trace.NewEvaluator(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var pooled bytes.Buffer
			for k, places := range placements {
				r, err := ev.Evaluate(places)
				if err != nil {
					t.Fatalf("%s %s: %v", label, names[k], err)
				}
				writeGolden(&pooled, label+" "+names[k], r)
			}
			ev.Close()
			pool, err := trace.NewEvaluatorPool(tr, cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			many, err := pool.EvaluateMany(placements, 2)
			pool.Close()
			if err != nil {
				t.Fatalf("%s: EvaluateMany: %v", label, err)
			}
			var batch bytes.Buffer
			for k, r := range many {
				writeGolden(&batch, label+" "+names[k], r)
			}
			if !bytes.Equal(pooled.Bytes(), batch.Bytes()) {
				t.Errorf("%s: EvaluateMany renders differently from the pooled Evaluator", label)
			}
			got.Write(pooled.Bytes())
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(replayGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(replayGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", replayGoldenPath, got.Len())
		return
	}
	want, err := os.ReadFile(replayGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/trace -run TestGoldenReplayOutputs -update`): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("replay outputs drifted from %s at line %d:\n  got:  %.200s\n  want: %.200s",
					replayGoldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("replay outputs drifted from %s: %d vs %d lines", replayGoldenPath, len(gl), len(wl))
	}
}
