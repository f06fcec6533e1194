package sim

import (
	"math/rand"
	"testing"

	"roadrunner/internal/units"
)

// TestDispatchOrderRandomPrograms pins the calendar's contract on seeded
// random event programs whose events schedule further events from event
// context: zero delays, exact ties with pending events, and times from
// 1 ps up to about 2^61 ps, so keys differ from the clock in nearly every
// bit position. One engine runs every program, with a Reset between
// them. Each dispatch must come strictly after the previous one in
// (time, schedule order), every event must run exactly once at its
// time, and Stats must report the events run and the most events that
// were pending at once.
func TestDispatchOrderRandomPrograms(t *testing.T) {
	const budget = 3000 // events per program
	const horizon = units.Time(1) << 62
	e := NewEngine()
	defer e.Close()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			runs          []int        // per event id, times it ran
			recent        []units.Time // times recently scheduled, for ties
			pending, peak int
			lastAt        units.Time
			lastID        = -1
			bad           int
			schedule      func(at units.Time)
		)
		// next picks a time at or after now: the clock itself, a tie
		// with a time scheduled before, or a delay of random magnitude.
		next := func(now units.Time) units.Time {
			switch p := rng.Intn(8); {
			case p < 2:
				return now
			case p < 4 && len(recent) > 0:
				if at := recent[rng.Intn(len(recent))]; at >= now {
					return at
				}
				return now
			default:
				d := 1 + units.Time(rng.Int63n(int64(1)<<uint(rng.Intn(62))))
				if d > horizon-now {
					d = horizon - now
				}
				return now + d
			}
		}
		schedule = func(at units.Time) {
			id := len(runs)
			runs = append(runs, 0)
			if len(recent) < 64 {
				recent = append(recent, at)
			} else {
				recent[rng.Intn(len(recent))] = at
			}
			pending++
			peak = max(peak, pending)
			e.At(at, func() {
				pending--
				runs[id]++
				now := e.Now()
				if now != at || now < lastAt || (now == lastAt && id <= lastID) {
					if bad++; bad <= 5 {
						t.Errorf("seed %d: event %d (at %v) ran at %v after event %d at %v",
							seed, id, at, now, lastID, lastAt)
					}
				}
				lastAt, lastID = now, id
				if len(runs) >= budget {
					return
				}
				for k := rng.Intn(4); k > 0; k-- {
					schedule(next(now))
				}
			})
		}
		for k := 1 + rng.Intn(40); k > 0; k-- {
			schedule(next(0))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for id, n := range runs {
			if n != 1 {
				t.Fatalf("seed %d: event %d ran %d times", seed, id, n)
			}
		}
		st := e.Stats()
		if st.Dispatched != int64(len(runs)) || st.CalendarPeak != peak {
			t.Fatalf("seed %d: stats %+v, want %d dispatched and calendar peak %d",
				seed, st, len(runs), peak)
		}
		e.Reset()
	}
}
