package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"roadrunner/internal/collectives"
	"roadrunner/internal/placement"
	"roadrunner/internal/trace"
)

// TestMetricsMatchBenchmarkJSON pins the benchmark's metric and workload
// tables to BENCHMARK.json, which the runs are judged by.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestSameSeedSameCounters runs every workload twice untraced and once
// traced on one seed, each as short as the workload allows: the input
// digests and every deterministic counter must agree across the three.
func TestSameSeedSameCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs []*runResult
			for _, traced := range []bool{false, false, true} {
				res, _, err := runWorkload(w, options{workload: w.name, seed: 7, seconds: 1, trace: traced})
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Fatalf("traced=%v: %d of %d ops failed: %v", traced, res.failed, res.attempted, res.failures)
				}
				runs = append(runs, res)
			}
			for i, r := range runs[1:] {
				if !reflect.DeepEqual(r.digests, runs[0].digests) {
					t.Errorf("run %d input digests %v, run 0 %v", i+1, r.digests, runs[0].digests)
				}
				for _, n := range deterministic {
					if r.counters[n] != runs[0].counters[n] {
						t.Errorf("run %d %s = %v, run 0 %v", i+1, n, r.counters[n], runs[0].counters[n])
					}
				}
			}
		})
	}
}

// TestSeedChangesInputs: another seed gives other inputs.
func TestSeedChangesInputs(t *testing.T) {
	if digest(collPerms(1)) == digest(collPerms(2)) {
		t.Error("collective-saturation: seeds 1 and 2 give the same permutations")
	}
	if digest(placeSeeds(1)) == digest(placeSeeds(2)) {
		t.Error("placement-search: seeds 1 and 2 give the same search seeds")
	}
	p1, p2 := planServe(1, 40, 64), planServe(2, 40, 64)
	if digest(p1.places) == digest(p2.places) || reflect.DeepEqual(p1.of, p2.of) {
		t.Error("serve rung: seeds 1 and 2 give the same submission plan")
	}
	if !reflect.DeepEqual(planServe(1, 40, 64), p1) {
		t.Error("serve rung: seed 1 gives two different plans")
	}
}

// TestCorruptedExpectationFails feeds each workload's output check a
// result with one expected value corrupted: the check must fail.
func TestCorruptedExpectationFails(t *testing.T) {
	c, err := captureCanonical()
	if err != nil {
		t.Fatal(err)
	}

	cfg, err := collConfig(collPerm(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	cr, err := collectives.Run(cfg, collOp, collSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCollective(cr); err != nil {
		t.Fatalf("collective check fails on a good result: %v", err)
	}
	cr.Messages++
	if checkCollective(cr) == nil {
		t.Error("collective check passes a result with a wrong message count")
	}

	pcfg := placeConfig(c, 1)
	pcfg.GreedyRounds, pcfg.AnnealRounds = 1, 1
	pr, err := placement.Optimize(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkPlacement(c, pr); err != nil {
		t.Fatalf("placement check fails on a good result: %v", err)
	}
	pr.BestTime--
	if _, err := checkPlacement(c, pr); err == nil {
		t.Error("placement check passes a winner whose replay differs from BestTime")
	}

	ev, err := trace.NewEvaluator(c.tr, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	places := c.starts[0].Places
	r, err := ev.Evaluate(places)
	if err != nil {
		t.Fatal(err)
	}
	rec := reqRecord{makespan: r.Time, messages: r.Messages, events: r.EngineStats.Dispatched}
	if err := checkServed(ev, places, rec); err != nil {
		t.Fatalf("serve check fails on a good answer: %v", err)
	}
	rec.makespan++
	if err := checkServed(ev, places, rec); err == nil {
		t.Error("serve check passes a served makespan that Evaluate does not reproduce")
	}
}

// TestServeRung runs the serve rung once: every submission passes its
// checks and exactly the planned share of them coalesces.
func TestServeRung(t *testing.T) {
	if testing.Short() {
		t.Skip("serves 65 replays")
	}
	c, err := captureCanonical()
	if err != nil {
		t.Fatal(err)
	}
	res := &runResult{}
	out := map[string]float64{}
	if err := serveRung(c, 7, res, out); err != nil {
		t.Fatal(err)
	}
	if res.attempted != serveSubmissions || res.failed != 0 {
		t.Fatalf("%d of %d submissions failed: %v", res.failed, res.attempted, res.failures)
	}
	if got := out["serve.coalesced_share"]; got != serveResubmit {
		t.Errorf("coalesced share %v, want %v", got, serveResubmit)
	}
}
