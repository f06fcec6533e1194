package surrogate

import (
	"testing"

	"roadrunner/internal/trace"
	"roadrunner/internal/units"
)

// compileValid validates the recorded trace and compiles it.
func compileValid(t *testing.T, rec *trace.Recorder, eager units.Size) *compiled {
	t.Helper()
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return compile(tr, eager, 1)
}

// TestCompiledChainTotals pins the compiled table on a serial
// two-rank chain: one pair carrying every message and byte, the sends
// above the eager threshold flagged rendezvous, and each recv wired to
// the send of the same position on the channel.
func TestCompiledChainTotals(t *testing.T) {
	sizes := []units.Size{8, 4 * units.KB, 64 * units.KB, 1 * units.MB}
	eager := units.Size(12 * units.KB)
	rec := trace.NewRecorder("chain", "test", 2)
	var bytes units.Size
	rdv := 0
	for i, s := range sizes {
		rec.Compute(0, 3*units.Microsecond, 0)
		rec.Send(0, 1, i, s, 0)
		rec.Recv(1, 0, i, s, 0)
		bytes += s
		if s > eager {
			rdv++
		}
	}
	c := compileValid(t, rec, eager)

	want := pairTraffic{src: 0, dst: 1, msgs: int64(len(sizes)), bytes: int64(bytes)}
	if len(c.traffic) != 1 || c.traffic[0] != want {
		t.Fatalf("traffic %+v, want [%+v]", c.traffic, want)
	}
	sends, recvs := c.ops[c.off[0]:c.off[1]], c.ops[c.off[1]:c.off[2]]
	if len(sends) != len(sizes) || len(recvs) != len(sizes) {
		t.Fatalf("%d sends and %d recvs, want %d each", len(sends), len(recvs), len(sizes))
	}
	gotRdv := 0
	for k, op := range sends {
		if op.kind != opSend || op.pair != 0 || op.size != int64(sizes[k]) {
			t.Errorf("send %d: %+v", k, op)
		}
		if op.rdv {
			gotRdv++
		}
	}
	if gotRdv != rdv {
		t.Errorf("%d rendezvous sends, want %d", gotRdv, rdv)
	}
	for k, op := range recvs {
		if op.kind != opRecv || op.sendOf != c.off[0]+int32(k) {
			t.Errorf("recv %d: %+v, want sendOf %d", k, op, c.off[0]+int32(k))
		}
	}
}

// TestCompiledPairsCanonicalOrder pins the table's order (source-major,
// destination-minor) on a 5-rank all-to-all whose ranks send in
// descending destination order — the surrogate's summation order, and
// therefore its float determinism, rides on it — and checks that every
// send points at its own pair and every recv at its own send.
func TestCompiledPairsCanonicalOrder(t *testing.T) {
	const ranks = 5
	rec := trace.NewRecorder("mesh", "test", ranks)
	size := func(s, d int) units.Size { return units.Size(1+s*ranks+d) * units.KB }
	for s := 0; s < ranks; s++ {
		for d := ranks - 1; d >= 0; d-- {
			if s == d {
				continue
			}
			// d+1 messages on each pair, so the totals tell pairs apart.
			for k := 0; k <= d; k++ {
				rec.Send(s, d, k, size(s, d), 0)
			}
		}
	}
	for d := 0; d < ranks; d++ {
		for s := 0; s < ranks; s++ {
			if s == d {
				continue
			}
			for k := 0; k <= d; k++ {
				rec.Recv(d, s, k, size(s, d), 0)
			}
		}
	}
	c := compileValid(t, rec, 12*units.KB)

	if want := ranks * (ranks - 1); len(c.traffic) != want {
		t.Fatalf("%d pairs, want %d", len(c.traffic), want)
	}
	for i, p := range c.traffic {
		if i > 0 {
			a := c.traffic[i-1]
			if a.src > p.src || (a.src == p.src && a.dst >= p.dst) {
				t.Fatalf("pairs out of canonical order at %d: %+v then %+v", i, a, p)
			}
		}
		n := int64(p.dst + 1)
		if want := (pairTraffic{src: p.src, dst: p.dst, msgs: n, bytes: n * int64(size(int(p.src), int(p.dst)))}); p != want {
			t.Errorf("pair %d: %+v, want %+v", i, p, want)
		}
	}
	for r := 0; r < ranks; r++ {
		for i := c.off[r]; i < c.off[r+1]; i++ {
			op := c.ops[i]
			switch op.kind {
			case opSend:
				if p := c.traffic[op.pair]; int(p.src) != r || op.size != int64(size(r, int(p.dst))) {
					t.Errorf("rank %d send op %d points at pair %+v", r, i, p)
				}
			case opRecv:
				if s := c.ops[op.sendOf]; s.kind != opSend || c.traffic[s.pair].dst != int32(r) {
					t.Errorf("rank %d recv op %d wired to op %d (%+v)", r, i, op.sendOf, s)
				}
			}
		}
	}
}
