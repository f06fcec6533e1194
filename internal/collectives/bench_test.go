package collectives

import (
	"testing"

	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// The collective benches are the DES hot path the scenario sweeps
// amplify: thousands of rank walkers exchanging through shared HCAs. The
// CI smoke runs them once (-benchtime=1x) to keep them from rotting;
// the bench-artifact step runs them at the default benchtime and
// archives the JSON output as BENCH_<short-sha>.json per commit (see
// .github/workflows/ci.yml and `make bench-artifact`), so the perf
// trajectory of the engine under collective load is tracked across PRs
// with properly averaged measurements.

func benchOp(b *testing.B, op Op, ranks int, size units.Size) {
	b.Helper()
	cfg := testConfig(ranks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, op, size)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Time.Microseconds(), "sim-us")
			b.ReportMetric(float64(res.Messages), "messages")
		}
	}
}

func BenchmarkCollectiveBarrier180(b *testing.B) {
	benchOp(b, BarrierRecursiveDoubling, 180, 0)
}

func BenchmarkCollectiveBcast180(b *testing.B) {
	benchOp(b, BcastBinomial, 180, 8*units.KB)
}

func BenchmarkCollectiveAllreduceRD180(b *testing.B) {
	benchOp(b, AllreduceRecursiveDoubling, 180, 8)
}

func BenchmarkCollectiveAllreduceRing64(b *testing.B) {
	benchOp(b, AllreduceRing, 64, 1*units.MB)
}

func BenchmarkCollectiveAlltoall32(b *testing.B) {
	benchOp(b, AlltoallPairwise, 32, 64*units.KB)
}

func BenchmarkCollectiveBarrierFullMachine(b *testing.B) {
	benchOp(b, BarrierRecursiveDoubling, 3060, 0)
}

// benchCongested measures the routed transport path: route enumeration,
// sorted link admission and congestion queueing on top of the PR 2
// model the benches above pin.
func benchCongested(b *testing.B, op Op, ranks int, size units.Size) {
	b.Helper()
	cfg := testConfig(ranks)
	cfg.Congestion = transport.Congested()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, op, size)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Time.Microseconds(), "sim-us")
			b.ReportMetric(res.Congestion.TotalWait.Microseconds(), "wait-us")
		}
	}
}

func BenchmarkCollectiveAlltoallCongested180(b *testing.B) {
	benchCongested(b, AlltoallPairwise, 180, 64*units.KB)
}

func BenchmarkCollectiveAlltoallCongested360(b *testing.B) {
	benchCongested(b, AlltoallPairwise, 360, 64*units.KB)
}
