package sim

import (
	"math/rand"
	"testing"

	"roadrunner/internal/units"
)

// BenchmarkEventLoop measures the raw calendar hot path: schedule and
// dispatch a batch of events, including events scheduled from inside
// event context (the common model pattern).
//
// Measured on the reference box (Xeon @ 2.10GHz, -benchtime 200x):
//
//	before (container/heap over []*event, map proc sets, eager reasons):
//	  BenchmarkEventLoop         445718 ns/op   95512 B/op   3087 allocs/op
//	  BenchmarkProcParkUnpark   2773420 ns/op  183035 B/op  12768 allocs/op
//
//	after (value-slab binary heap, intrusive lists, reusable wake closures):
//	  BenchmarkEventLoop         265646 ns/op   75864 B/op   1036 allocs/op
//	  BenchmarkProcParkUnpark   1427189 ns/op   30170 B/op    392 allocs/op
//
//	after PR 5 (iter.Pull coroutine procs, lazy parked set, hole-sift
//	heap, shift-down queue pops):
//	  BenchmarkEventLoop         256195 ns/op   75848 B/op   1036 allocs/op
//	  BenchmarkProcParkUnpark    524442 ns/op   36296 B/op    968 allocs/op
//
//	radix calendar, -cpu 1, three interleaved runs per side (2-vCPU
//	Xeon, Go 1.24.0):
//	  before (4-ary heap of (at, seq) event values):
//	  BenchmarkEventLoop          191–195 µs/op      75832 B/op   1036 allocs/op
//	  BenchmarkEventLoopChains360 73.3–73.5 ns/event 61051 B/op   1091 allocs/op
//	  BenchmarkProcParkUnpark     382–384 µs/op      36280 B/op    968 allocs/op
//	  after (radix calendar: one append per event, FIFO bucket at Now):
//	  BenchmarkEventLoop          58.5–61.0 µs/op    78064 B/op   1095 allocs/op
//	  BenchmarkEventLoopChains360 37.9–38.8 ns/event 221699 B/op  1236 allocs/op
//	  BenchmarkProcParkUnpark     297–299 µs/op      53344 B/op   1028 allocs/op
func BenchmarkEventLoop(b *testing.B) {
	const batch = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < batch; j++ {
			d := units.Time(j%97) * units.Nanosecond
			e.Schedule(d, func() {
				e.Schedule(units.Nanosecond, func() {})
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventLoopChains360 is perfbench's sim.dispatch_ns rung as a
// bench: 360 self-rescheduling event chains (the 360-node collective's
// rank count), 500 events each, with seeded 1–1,000 ns delays, on a
// fresh engine per op. It reports the cost per dispatched event.
func BenchmarkEventLoopChains360(b *testing.B) {
	const chains, depth = 360, 500
	rng := rand.New(rand.NewSource(1))
	delays := make([]units.Time, 1024)
	for i := range delays {
		delays[i] = units.Time(1+rng.Intn(1000)) * units.Nanosecond
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for c := 0; c < chains; c++ {
			left := depth
			var fn func()
			fn = func() {
				left--
				if left > 0 {
					e.Schedule(delays[(c*7+left)&1023], fn)
				}
			}
			e.Schedule(delays[c&1023], fn)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chains*depth), "ns/event")
}

// BenchmarkProcParkUnpark measures proc churn: a ring of procs that
// repeatedly sleep, exercising park/unpark bookkeeping (the structures
// the orchestrator amplifies when many DES engines run at once).
func BenchmarkProcParkUnpark(b *testing.B) {
	const procs, rounds = 64, 32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < procs; j++ {
			j := j
			e.Spawn("p", func(p *Proc) {
				for r := 0; r < rounds; r++ {
					p.Sleep(units.Time(1+j%7) * units.Nanosecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
}
