package sim

import (
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
