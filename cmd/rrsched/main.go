// Command rrsched drives the facility simulator: the full 3,060-node
// Roadrunner machine under a deterministic job stream, scheduled by a
// batch policy over a node allocator.
//
// A run generates a seeded LINPACK/Sweep3D/trace job mix, simulates it
// end to end, and prints the headline accounting (utilization, queue
// wait, bounded slowdown, fragmentation, makespan vs the oracle packer)
// plus occupancy/fragmentation density strips; -gantt adds the per-job
// timeline. A sweep runs the canonical mix over every policy x
// allocator combination and prints one row per point.
//
// Usage:
//
//	rrsched run                                 # canonical 48-job mix, EASY + contiguous
//	rrsched run -policy fcfs -alloc scattered
//	rrsched run -jobs 16 -seed 7 -mean-arrival 60 -trace=false
//	rrsched run -gantt -width 100
//	rrsched run -jsonl run.jsonl                # one JSON line per job + summary
//	rrsched sweep                               # 2 policies x 3 allocators, twice
//	rrsched sweep -jsonl sweep.jsonl
//
// Mixes with trace-replay jobs (-trace, the default) first capture a
// 16-rank Sweep3D communication schedule and price each trace job by
// replaying it under the granted node mapping; -trace=false drops that
// class and runs in milliseconds. Every run is a deterministic function
// of its flags.
//
// Exit status: 0 success, 1 run error, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"roadrunner"
	"roadrunner/internal/facility"
	"roadrunner/internal/report"
	"roadrunner/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run executes one rrsched invocation (args without the program name)
// and returns its exit status.
func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	switch args[0] {
	case "run":
		return runMix(args[1:])
	case "sweep":
		return runSweep(args[1:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	}
	fmt.Fprintf(os.Stderr, "rrsched: unknown subcommand %q\n\n", args[0])
	usage()
	return 2
}

// maxWidth bounds the chart width: the charts hold a row of width
// bytes per job and per strip.
const maxWidth = 1000

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  rrsched run [-policy fcfs|easy] [-alloc contiguous|scattered|assisted]
              [-jobs N] [-seed N] [-mean-arrival SECONDS] [-trace=BOOL]
              [-gantt] [-width N] [-jsonl FILE]
  rrsched sweep [-jsonl FILE]

run   simulates one policy/allocator pair over a seeded job mix and
      prints the summary + occupancy strips (and -gantt the timeline)
sweep runs the canonical mix over every policy x allocator combination
`)
}

func runMix(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	policy := fs.String("policy", "easy", "scheduling policy: fcfs or easy")
	alloc := fs.String("alloc", "contiguous", "node allocator: contiguous, scattered or assisted")
	jobs := fs.Int("jobs", 0, "job count (0 keeps the canonical mix's 48)")
	seed := fs.Int64("seed", 0, "workload seed (0 keeps the canonical mix's)")
	meanArrival := fs.Float64("mean-arrival", 0, "mean interarrival in seconds (0 keeps the canonical mix's 90)")
	withTrace := fs.Bool("trace", true, "include trace-replay jobs (capture + replay pricing)")
	gantt := fs.Bool("gantt", false, "print the per-job timeline")
	width := fs.Int("width", 72, fmt.Sprintf("chart width in columns (at most %d)", maxWidth))
	jsonl := fs.String("jsonl", "", "dump one JSON line per job plus the summary to FILE")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "rrsched run: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if _, err := facility.NewPolicy(*policy); err != nil {
		fmt.Fprintf(os.Stderr, "rrsched run: %v\n", err)
		return 2
	}
	if _, err := facility.NewAllocator(*alloc, 0); err != nil {
		fmt.Fprintf(os.Stderr, "rrsched run: %v\n", err)
		return 2
	}
	if *width > maxWidth {
		fmt.Fprintf(os.Stderr, "rrsched run: -width %d above the maximum %d\n", *width, maxWidth)
		return 2
	}
	if *meanArrival*float64(units.Second) >= math.MaxInt64 {
		fmt.Fprintf(os.Stderr, "rrsched run: -mean-arrival %gs does not fit the simulated clock (%v)\n",
			*meanArrival, units.Time(math.MaxInt64))
		return 2
	}

	w := roadrunner.DefaultFacilityWorkload()
	if *jobs > 0 {
		w.Jobs = *jobs
	}
	if *seed != 0 {
		w.Seed = *seed
	}
	if *meanArrival > 0 {
		w.MeanInterarrival = units.FromSeconds(*meanArrival)
	}
	if !*withTrace {
		kept := w.Classes[:0]
		for _, c := range w.Classes {
			if c.Class != roadrunner.FacilityClassTrace {
				kept = append(kept, c)
			}
		}
		w.Classes = kept
	}

	start := time.Now()
	res, err := roadrunner.RunFacility(*policy, *alloc, w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrsched run: %v\n", err)
		return 1
	}
	fmt.Print(facility.Summary(res))
	fmt.Print(facility.Occupancy(res, *width))
	if *gantt {
		fmt.Print(facility.Gantt(res, *width))
	}
	fmt.Printf("simulated in %v\n", time.Since(start).Round(time.Millisecond))

	if *jsonl != "" {
		if err := dumpRunJSONL(*jsonl, res); err != nil {
			fmt.Fprintf(os.Stderr, "rrsched run: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %d job lines + summary to %s\n", len(res.Jobs), *jsonl)
	}
	return 0
}

// dumpRunJSONL writes one line per job outcome, then the run summary
// with the jobs and timeline stripped.
func dumpRunJSONL(path string, res *facility.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	em := report.NewJSONLEmitter(f)
	for _, j := range res.Jobs {
		if err := em.Emit(struct {
			Kind string `json:"kind"`
			facility.JobOutcome
		}{"job", j}); err != nil {
			f.Close()
			return err
		}
	}
	summary := *res
	summary.Jobs = nil
	summary.Timeline = nil
	if err := em.Emit(struct {
		Kind string `json:"kind"`
		facility.Result
	}{"summary", summary}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runSweep(args []string) int {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	jsonl := fs.String("jsonl", "", "dump one JSON line per sweep point to FILE")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "rrsched sweep: unexpected arguments %v\n", fs.Args())
		return 2
	}

	start := time.Now()
	rep, err := roadrunner.FacilitySweep()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrsched sweep: %v\n", err)
		return 1
	}
	fmt.Printf("%s: %d jobs on %d nodes (trace %s, %d ranks)\n",
		rep.Workload, rep.Jobs, rep.MachineNodes, rep.TraceName, rep.TraceRanks)
	fmt.Printf("%-6s %-11s %6s %12s %12s %6s %6s %14s %8s %5s\n",
		"policy", "alloc", "util", "mean wait", "p95 wait", "slow", "frag", "makespan", "oracle", "bfill")
	for _, p := range rep.Points {
		fmt.Printf("%-6s %-11s %5.1f%% %12v %12v %6.1f %6.3f %14v %8.3f %5d\n",
			p.Policy, p.Alloc, p.UtilizationFrac*100, p.MeanWait, p.P95Wait,
			p.MeanSlowdown, p.MeanFragmentation, p.Makespan, p.OracleRatio, p.Backfilled)
	}
	fmt.Printf("deterministic=%v (two full sweeps compared) in %v\n",
		rep.Deterministic, time.Since(start).Round(time.Millisecond))

	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rrsched sweep: %v\n", err)
			return 1
		}
		em := report.NewJSONLEmitter(f)
		for _, p := range rep.Points {
			if err := em.Emit(p); err != nil {
				f.Close()
				fmt.Fprintf(os.Stderr, "rrsched sweep: %v\n", err)
				return 1
			}
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rrsched sweep: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %d points to %s\n", len(rep.Points), *jsonl)
	}
	return 0
}
