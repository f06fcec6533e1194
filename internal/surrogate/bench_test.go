package surrogate_test

import (
	"testing"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/surrogate"
	"roadrunner/internal/transport"
)

// The Surrogate* benches track the analytic fast path against the
// pooled evaluator it screens for (BenchmarkEvaluatorReplayMakespanOnly
// in internal/trace): SurrogatePrice is the two-tier search's inner
// loop and must stay microseconds, not milliseconds.

func benchModel(b *testing.B) (*surrogate.Model, []transport.Endpoint) {
	b.Helper()
	tr := testTrace(b)
	fab := fabric.New()
	m, err := surrogate.New(tr, fab, ib.OpenMPI(), transport.Congested())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(m.Close)
	// The congested candidate: everything strided across the fabric.
	return m, basePlacements(b, fab, tr.Meta.Ranks)[1]
}

// BenchmarkSurrogatePrice is one warm-cache pricing of a 64-rank
// congested placement. It tracks the pricing cost alone; the screening
// claim of record is the 3x floor over the pooled DES that
// scenario.MeasureSurrogateSpeed measures (TestSurrogateSpeedFloor).
func BenchmarkSurrogatePrice(b *testing.B) {
	m, places := benchModel(b)
	m.Price(places) // warm the route cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Price(places)
	}
}

// BenchmarkSurrogatePriceColdRoutes re-prices through a cold per-clone
// route cache each iteration: what the first candidate on a fresh
// search worker costs.
func BenchmarkSurrogatePriceColdRoutes(b *testing.B) {
	m, places := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		c.Price(places)
		c.Close()
	}
}

// BenchmarkSurrogateNew is the per-trace setup: traffic matrix,
// dependency compile and buffer allocation. Paid once per search, not
// per candidate.
func BenchmarkSurrogateNew(b *testing.B) {
	tr := testTrace(b)
	fab := fabric.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := surrogate.New(tr, fab, ib.OpenMPI(), transport.Congested())
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}
