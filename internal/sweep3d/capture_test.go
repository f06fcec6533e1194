package sweep3d

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"roadrunner/internal/cml"
	"roadrunner/internal/sim"
	"roadrunner/internal/trace"
)

// captureCfg is the small configuration the capture tests share.
var captureCfg = Config{I: 2, J: 2, K: 4, MK: 2, Angles: 2}

func TestCaptureDESMatchesUncaptured(t *testing.T) {
	px, py := 3, 2
	plain, err := RunOnDES(captureCfg, px, py, cml.CurrentSoftware())
	if err != nil {
		t.Fatalf("RunOnDES: %v", err)
	}
	captured, tr, err := CaptureDES(captureCfg, px, py, cml.CurrentSoftware())
	if err != nil {
		t.Fatalf("CaptureDES: %v", err)
	}
	// Recording is pure observation: numerics and timing are untouched.
	if captured.IterationTime != plain.IterationTime {
		t.Errorf("iteration time %v with capture, %v without", captured.IterationTime, plain.IterationTime)
	}
	if captured.Absorbed != plain.Absorbed || captured.Outflow != plain.Outflow {
		t.Errorf("balance (%v, %v) with capture, (%v, %v) without",
			captured.Absorbed, captured.Outflow, plain.Absorbed, plain.Outflow)
	}
	for i, phi := range plain.Phi {
		if captured.Phi[i] != phi {
			t.Fatalf("flux diverges at cell %d", i)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("captured trace invalid: %v", err)
	}
	if tr.Meta.Ranks != px*py || tr.Meta.App != "sweep3d" {
		t.Errorf("meta %+v", tr.Meta)
	}
}

func TestCaptureDESRecordCounts(t *testing.T) {
	px, py := 3, 2
	_, tr, err := CaptureDES(captureCfg, px, py, cml.CurrentSoftware())
	if err != nil {
		t.Fatalf("CaptureDES: %v", err)
	}
	s := tr.Stats()
	// Per octant and K block: each px row passes px-1 x-boundaries and
	// each py column py-1 y-boundaries.
	steps := Octants * captureCfg.KBlocks()
	wantSends := steps * (py*(px-1) + px*(py-1))
	if s.Sends != wantSends || s.Recvs != wantSends {
		t.Errorf("sends/recvs %d/%d, want %d (KBA wavefront schedule)", s.Sends, s.Recvs, wantSends)
	}
	if want := px * py * steps; s.Computes != want {
		t.Errorf("computes %d, want %d", s.Computes, want)
	}
	// Boundary payloads: J*MK*Angles east/west values and I*MK*Angles
	// north/south values, 8 bytes each.
	wantBytes := steps * (py*(px-1)*captureCfg.EWSurfaceBytes() + px*(py-1)*captureCfg.NSSurfaceBytes())
	if int(s.Bytes) != wantBytes {
		t.Errorf("trace bytes %d, want %d", int(s.Bytes), wantBytes)
	}
	if s.Span == 0 || s.ComputeTime == 0 {
		t.Errorf("empty timestamps: %+v", s)
	}
}

func TestCaptureDESDeterministic(t *testing.T) {
	enc := func() []byte {
		_, tr, err := CaptureDES(captureCfg, 2, 2, cml.CurrentSoftware())
		if err != nil {
			t.Fatalf("CaptureDES: %v", err)
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("two captures of the same run serialize differently")
	}
}

func TestCaptureDESRejectsBadConfig(t *testing.T) {
	bad := captureCfg
	bad.MK = 3 // does not divide K
	if _, _, err := CaptureDES(bad, 2, 2, cml.CurrentSoftware()); err == nil {
		t.Fatal("invalid config accepted")
	}
	// Non-positive grid dimensions must error, not panic (and not
	// silently record an empty trace when the product is positive).
	for _, grid := range [][2]int{{0, 2}, {2, 0}, {-2, -2}} {
		if _, _, err := CaptureDES(captureCfg, grid[0], grid[1], cml.CurrentSoftware()); err == nil {
			t.Errorf("%dx%d rank grid accepted", grid[0], grid[1])
		}
		if _, err := RunOnDES(captureCfg, grid[0], grid[1], cml.CurrentSoftware()); err == nil {
			t.Errorf("RunOnDES accepted %dx%d rank grid", grid[0], grid[1])
		}
	}
}

func TestDESDeadlockNamesBlockedRecvs(t *testing.T) {
	// Losing the first boundary message leaves its receiver, and in time
	// every rank upstream of it, waiting in a recv: the run reports each
	// as a *sim.DeadlockError entry instead of returning a result.
	d, err := newDESRun(captureCfg, 2, 1, cml.CurrentSoftware(), nil)
	if err != nil {
		t.Fatal(err)
	}
	deliver, dropped := d.deliverFn, false
	d.deliverFn = func(m *cml.Message) {
		if !dropped {
			dropped = true
			return
		}
		deliver(m)
	}
	_, err = d.run()
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want a *sim.DeadlockError", err)
	}
	// Rank 1 waits for the lost x boundary of octant 0, block 0; rank 0
	// for rank 1's first boundary of the first octant sweeping in -x.
	want := []string{"rank0 (recv from 1 tag 8192)", "rank1 (recv from 0 tag 0)"}
	if !slices.Equal(de.Procs, want) {
		t.Errorf("blocked ranks %q, want %q", de.Procs, want)
	}
}
