package surrogate_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"roadrunner/internal/cml"
	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/surrogate"
	"roadrunner/internal/sweep3d"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// The captured 8x8 Sweep3D iteration every test prices — the same
// schedule the trace-replay and placement experiments run.
var captureOnce = sync.OnceValues(func() (*trace.Trace, error) {
	cfg := sweep3d.Config{I: 5, J: 5, K: 40, MK: 10, Angles: 6}
	_, tr, err := sweep3d.CaptureDES(cfg, 8, 8, cml.CurrentSoftware())
	return tr, err
})

func testTrace(t testing.TB) *trace.Trace {
	t.Helper()
	tr, err := captureOnce()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// basePlacements returns the three named baselines of the trace-replay
// sweep: block, one-rank-per-CU strided, and packed four-per-node.
func basePlacements(t testing.TB, fab *fabric.System, ranks int) [][]transport.Endpoint {
	t.Helper()
	var out [][]transport.Endpoint
	for _, name := range transport.PlacementNames {
		places, err := transport.NamedPlacement(name, fab, ranks, transport.DefaultStride, transport.DefaultPerNode, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, places)
	}
	return out
}

// perturb returns base with `swaps` seeded rank swaps applied — the
// capacity-preserving move the optimizer uses.
func perturb(base []transport.Endpoint, seed int64, swaps int) []transport.Endpoint {
	rng := rand.New(rand.NewSource(seed))
	out := append([]transport.Endpoint(nil), base...)
	for i := 0; i < swaps; i++ {
		a, b := rng.Intn(len(out)), rng.Intn(len(out))
		out[a], out[b] = out[b], out[a]
	}
	return out
}

// TestPriceDeterministicAcrossClonesAndCalls pins the contract the
// parallel search rides on: the same candidate prices identically on
// repeated calls, on clones, and regardless of what was priced before
// (route-cache history must not leak into float summation order).
func TestPriceDeterministicAcrossClonesAndCalls(t *testing.T) {
	tr := testTrace(t)
	fab := fabric.NewScaled(4)
	m, err := surrogate.NewReplay(tr, trace.ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Policy: transport.Congested()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	bases := basePlacements(t, fab, tr.Meta.Ranks)
	var cands [][]transport.Endpoint
	for _, b := range bases {
		cands = append(cands, b)
		for s := int64(1); s <= 3; s++ {
			cands = append(cands, perturb(b, s, 5))
		}
	}
	first := make([]units.Time, len(cands))
	for i, c := range cands {
		first[i] = m.Price(c)
	}
	// Same model, reversed order: cache state differs per call now.
	for i := len(cands) - 1; i >= 0; i-- {
		if got := m.Price(cands[i]); got != first[i] {
			t.Fatalf("candidate %d re-priced %v, first saw %v", i, got, first[i])
		}
	}
	// A fresh clone with its own cold caches.
	c := m.Clone()
	defer c.Close()
	for i, cand := range cands {
		if got := c.Price(cand); got != first[i] {
			t.Fatalf("candidate %d priced %v on clone, %v on original", i, got, first[i])
		}
	}
}

// TestPriceSpreadsCandidates: an uncalibrated model already orders
// the baselines the way the DES does (packed keeps the wavefront's
// neighbor exchanges on-node; strided pays the fabric for everything),
// so the screening signal exists before any DES anchor is spent.
func TestPriceSpreadsCandidates(t *testing.T) {
	tr := testTrace(t)
	fab := fabric.NewScaled(4)
	m, err := surrogate.NewReplay(tr, trace.ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Policy: transport.Congested()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	bases := basePlacements(t, fab, tr.Meta.Ranks)
	block, strided, packed := m.Price(bases[0]), m.Price(bases[1]), m.Price(bases[2])
	if !(packed < block) || !(block < strided) {
		t.Errorf("uncalibrated ordering: packed %v, block %v, strided %v — want packed < block < strided",
			packed, block, strided)
	}
}

// TestCalibratedSpearmanVsDES is the tentpole's unit-level contract on
// the default fabric: calibrate on a dozen anchors, then the surrogate
// must rank a held-out candidate set the way the DES does, Spearman
// >= 0.9. (The surrogate-xval experiment asserts the same over every
// registered topology.)
func TestCalibratedSpearmanVsDES(t *testing.T) {
	tr := testTrace(t)
	fab := fabric.New()
	cfg := trace.ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Policy: transport.Congested()}

	ev, err := trace.NewEvaluator(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	des := func(pl []transport.Endpoint) units.Time {
		res, err := ev.Evaluate(pl)
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}

	m, err := surrogate.NewReplay(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	bases := basePlacements(t, fab, tr.Meta.Ranks)
	var anchors [][]transport.Endpoint
	anchors = append(anchors, bases...)
	for s := int64(1); s <= 9; s++ {
		anchors = append(anchors, perturb(bases[s%3], s, 4))
	}
	times := make([]units.Time, len(anchors))
	for i, a := range anchors {
		times[i] = des(a)
	}
	if err := m.Calibrate(anchors, times); err != nil {
		t.Fatal(err)
	}

	var holdout [][]transport.Endpoint
	holdout = append(holdout, bases...)
	for s := int64(100); s < 118; s++ {
		holdout = append(holdout, perturb(bases[s%3], s, 2+int(s%7)))
	}
	dt := make([]units.Time, len(holdout))
	st := make([]units.Time, len(holdout))
	for i, h := range holdout {
		dt[i] = des(h)
		st[i] = m.Price(h)
	}
	rho := surrogate.Spearman(dt, st)
	if math.IsNaN(rho) || rho < 0.9 {
		t.Fatalf("holdout Spearman %.3f < 0.9 (des %v, surrogate %v)", rho, dt, st)
	}
}

// TestCalibrateRejectsBadInput: shape errors are errors, not fits.
func TestCalibrateRejectsBadInput(t *testing.T) {
	tr := testTrace(t)
	fab := fabric.NewScaled(2)
	m, err := surrogate.NewReplay(tr, trace.ReplayConfig{Fabric: fab, Profile: ib.OpenMPI(), Policy: transport.Congested()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	b := basePlacements(t, fab, tr.Meta.Ranks)[0]
	if err := m.Calibrate([][]transport.Endpoint{b, b}, []units.Time{1, 2}); err == nil {
		t.Error("calibrated on fewer anchors than features")
	}
	if err := m.Calibrate([][]transport.Endpoint{b}, []units.Time{1, 2}); err == nil {
		t.Error("calibrated on mismatched anchor/time lengths")
	}
}

// TestNewReplayInvalidTraceErrors: a trace Validate rejects is an
// error from NewReplay, never a panic in the compile that trusts it.
func TestNewReplayInvalidTraceErrors(t *testing.T) {
	cfg := trace.ReplayConfig{Fabric: fabric.NewScaled(1), Profile: ib.OpenMPI()}
	send := trace.Record{Rank: 0, Seq: 0, Kind: trace.KindSend, Peer: 1, Size: 8, Dep: trace.NoDep}
	recv := trace.Record{Rank: 1, Seq: 0, Kind: trace.KindRecv, Peer: 0, Size: 8, Dep: 0}
	farDep := recv
	farDep.Dep = 5
	cases := []struct {
		name string
		recs []trace.Record
	}{
		{"unmatched send", []trace.Record{send}},
		{"orphan recv", []trace.Record{recv}},
		{"dep past send", []trace.Record{send, farDep}},
	}
	for _, tc := range cases {
		tr := &trace.Trace{Meta: trace.Meta{Name: "bad", Ranks: 2}, Records: tc.recs}
		if m, err := surrogate.NewReplay(tr, cfg); err == nil {
			m.Close()
			t.Errorf("%s: built a model", tc.name)
		}
	}
}

// TestSpearmanKnownValues pins the correlation helper.
func TestSpearmanKnownValues(t *testing.T) {
	a := []units.Time{10, 20, 30, 40, 50}
	up := []units.Time{1, 2, 3, 4, 5}
	down := []units.Time{5, 4, 3, 2, 1}
	if r := surrogate.Spearman(a, up); math.Abs(r-1) > 1e-12 {
		t.Errorf("monotone up: %v, want 1", r)
	}
	if r := surrogate.Spearman(a, down); math.Abs(r+1) > 1e-12 {
		t.Errorf("monotone down: %v, want -1", r)
	}
	// Nonlinear but monotone is still a perfect rank correlation.
	if r := surrogate.Spearman(a, []units.Time{1, 100, 101, 5000, 1 << 40}); math.Abs(r-1) > 1e-12 {
		t.Errorf("monotone nonlinear: %v, want 1", r)
	}
	if r := surrogate.Spearman(a, []units.Time{7, 7, 7, 7, 7}); !math.IsNaN(r) {
		t.Errorf("constant list: %v, want NaN", r)
	}
	if r := surrogate.Spearman(a[:2], a[:1]); !math.IsNaN(r) {
		t.Errorf("length mismatch: %v, want NaN", r)
	}
}
