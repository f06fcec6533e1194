package scenario

import (
	"testing"

	"roadrunner/internal/collectives"
	"roadrunner/internal/transport"
)

// The saturation benches track the congested transport's hot-loop cost —
// route enumeration, sorted link admission, queueing — next to the PR 2
// benches in internal/collectives. CI's bench-artifact step archives
// them in BENCH_<short-sha>.json per commit (see .github/workflows/ci.yml
// and `make bench-artifact`).

func benchSaturationOp(b *testing.B, op collectives.Op, nodes int, pol transport.Policy) {
	b.Helper()
	cfg, err := collectives.DefaultConfig(nodes)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Congestion = pol
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := collectives.Run(cfg, op, SaturationSize)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Time.Microseconds(), "sim-us")
			b.ReportMetric(float64(res.EngineStats.Dispatched), "events")
			if c := res.Congestion; c != nil {
				b.ReportMetric(c.TotalWait.Microseconds(), "wait-us")
			}
		}
	}
}

func BenchmarkSaturationAlltoallCongested360(b *testing.B) {
	benchSaturationOp(b, collectives.AlltoallPairwise, 360, transport.Congested())
}

func BenchmarkSaturationAlltoallInfinite360(b *testing.B) {
	benchSaturationOp(b, collectives.AlltoallPairwise, 360, transport.Policy{})
}

func BenchmarkSaturationAllgatherCongested360(b *testing.B) {
	benchSaturationOp(b, collectives.AllgatherRing, 360, transport.Congested())
}

// The topo-compare benches run the saturation alltoall on the
// alternative fabrics, so a routing or admission regression on any
// registered topology shows in the per-commit record, not only on the
// default tree.
func benchTopoOp(b *testing.B, topology string, op collectives.Op, nodes int, pol transport.Policy) {
	b.Helper()
	cfg, err := collectives.DefaultConfigOn(topology, nodes)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Congestion = pol
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := collectives.Run(cfg, op, SaturationSize)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Time.Microseconds(), "sim-us")
			b.ReportMetric(float64(res.EngineStats.Dispatched), "events")
		}
	}
}

func BenchmarkTopoCompareTorusAlltoallCongested360(b *testing.B) {
	benchTopoOp(b, "torus", collectives.AlltoallPairwise, 360, transport.Congested())
}

func BenchmarkTopoCompareFullBisectionAlltoallCongested360(b *testing.B) {
	benchTopoOp(b, "fattree-full", collectives.AlltoallPairwise, 360, transport.Congested())
}
