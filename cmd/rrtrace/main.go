// Command rrtrace captures, inspects and replays application
// communication traces over the simulated Roadrunner interconnect.
//
// A capture runs one Sweep3D source iteration on the DES machine and
// records the KBA wavefront schedule — every boundary receive, block
// compute and boundary send — as a JSONL trace (one header line, then
// one record per line in rank-major order). A replay drives the same
// schedule through the congestion-aware transport under a chosen
// rank→node placement, reporting the makespan, per-message timing and
// the link-contention census.
//
// Usage:
//
//	rrtrace capture -o sweep.jsonl                 # 8x8 ranks, 5x5x40 grid
//	rrtrace capture -px 4 -py 4 -k 20 -o small.jsonl
//	rrtrace inspect -i sweep.jsonl
//	rrtrace replay -i sweep.jsonl                  # block placement, congested
//	rrtrace replay -i sweep.jsonl -placement strided -stride 180 -toplinks 8
//	rrtrace replay -i sweep.jsonl -placement packed -congestion=off
//	rrtrace replay -i sweep.jsonl -skip-compute -messages 5
//	rrtrace replay -i sweep.jsonl -topology torus  # same schedule, torus wiring
//	rrtrace optimize -i sweep.jsonl                # search rank placements
//	rrtrace optimize -i sweep.jsonl -seed 3 -anneal-rounds 8 -mapping 8
//	rrtrace optimize -i sweep.jsonl -surrogate     # two-tier: surrogate screens
//
// An optimize run searches rank→node mappings against the replayed
// trace (the pooled batch evaluator is the objective), seeded from the
// block/strided/packed baselines: greedy pairwise-swap refinement, then
// batched simulated annealing. Deterministic for a given seed; -workers
// only changes wall clock. With -surrogate the analytic queueing
// surrogate — calibrated against -anchors DES replays — prices a
// -screen-factor wider candidate pool each round and only the cheapest
// shortlist reaches the DES; every reported time stays a DES-replayed
// makespan.
//
// Exit status: 0 success, 1 run error, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"roadrunner/internal/cml"
	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/placement"
	"roadrunner/internal/sweep3d"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run executes one rrtrace invocation (args without the program name)
// and returns its exit status.
func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	switch args[0] {
	case "capture":
		return capture(args[1:])
	case "inspect":
		return inspect(args[1:])
	case "replay":
		return replay(args[1:])
	case "optimize":
		return optimize(args[1:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	}
	fmt.Fprintf(os.Stderr, "rrtrace: unknown subcommand %q\n\n", args[0])
	usage()
	return 2
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  rrtrace capture [-px N -py N -i/-j/-k/-mk/-angles N] -o FILE
  rrtrace inspect -i FILE | inspect -spec
  rrtrace replay -i FILE [-placement block|strided|packed|all] [-stride N]
                 [-per-node N] [-core N] [-congestion on|off]
                 [-skip-compute] [-toplinks N] [-messages N] [-topology NAME]
  rrtrace optimize -i FILE [-seed N] [-workers N] [-congestion on|off]
                 [-full-schedule] [-greedy-rounds N] [-greedy-batch N]
                 [-anneal-rounds N] [-anneal-batch N] [-stride N]
                 [-per-node N] [-toplinks N] [-mapping N] [-topology NAME]
                 [-surrogate] [-screen-factor N] [-anchors N]
`)
}

func capture(args []string) int {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	px := fs.Int("px", 8, "rank-grid width")
	py := fs.Int("py", 8, "rank-grid height")
	i := fs.Int("i", 5, "per-rank subgrid I extent")
	j := fs.Int("j", 5, "per-rank subgrid J extent")
	k := fs.Int("k", 40, "per-rank subgrid K extent")
	mk := fs.Int("mk", 10, "K-blocking factor (must divide -k)")
	angles := fs.Int("angles", 6, "angles per octant")
	out := fs.String("o", "", "output trace file (required)")
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, "rrtrace capture: -o is required")
		return 2
	}
	cfg := sweep3d.Config{I: *i, J: *j, K: *k, MK: *mk, Angles: *angles}
	start := time.Now()
	res, tr, err := sweep3d.CaptureDES(cfg, *px, *py, cml.CurrentSoftware())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := trace.Save(*out, tr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	s := tr.Stats()
	fmt.Printf("captured %s: %d records (%d sends, %d recvs, %d computes), %v payload\n",
		tr.Meta.Name, s.Records, s.Sends, s.Recvs, s.Computes, s.Bytes)
	fmt.Printf("capture iteration %v simulated (CML path), %v host wall clock\n",
		res.IterationTime, time.Since(start).Round(time.Millisecond))
	fmt.Printf("wrote %s\n", *out)
	return 0
}

func inspect(args []string) int {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("i", "", "trace file (required)")
	spec := fs.Bool("spec", false, "print where the normative trace-format specification lives and exit")
	fs.Parse(args)
	if *spec {
		fmt.Printf("format %s version %d\n", trace.FormatName, trace.FormatVersion)
		fmt.Println("specification: docs/trace-format.md in the roadrunner source tree")
		fmt.Println("  (JSONL: one header line, then records in rank-major order;")
		fmt.Println("   validated invariants: dense seqs, FIFO send/recv matching, acyclic deps)")
		return 0
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "rrtrace inspect: -i is required")
		return 2
	}
	tr, err := trace.Load(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	s := tr.Stats()
	fmt.Printf("trace %s (app %s): %d ranks, %d records\n", tr.Meta.Name, tr.Meta.App, s.Ranks, s.Records)
	fmt.Printf("  sends %d, recvs %d, computes %d\n", s.Sends, s.Recvs, s.Computes)
	fmt.Printf("  payload %v on the wire, %v compute (summed over ranks), capture span %v\n",
		s.Bytes, s.ComputeTime, s.Span)
	if len(tr.Meta.Attrs) > 0 {
		fmt.Println("  attrs:")
		for _, k := range sortedKeys(tr.Meta.Attrs) {
			fmt.Printf("    %s = %s\n", k, tr.Meta.Attrs[k])
		}
	}
	return 0
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func optimize(args []string) int {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	in := fs.String("i", "", "trace file (required)")
	seed := fs.Int64("seed", 1, "random seed; equal seeds give identical searches")
	workers := fs.Int("workers", 0, "parallel evaluators (0 = GOMAXPROCS; result is identical either way)")
	congestion := fs.String("congestion", "on", "objective fabric: on (wormhole) or off (infinite capacity)")
	fullSchedule := fs.Bool("full-schedule", false,
		"optimize the full schedule including compute (default: communication-only, where placement shows undamped)")
	greedyRounds := fs.Int("greedy-rounds", 4, "greedy pairwise-swap rounds")
	greedyBatch := fs.Int("greedy-batch", 16, "swap candidates per greedy round")
	annealRounds := fs.Int("anneal-rounds", 4, "simulated-annealing rounds")
	annealBatch := fs.Int("anneal-batch", 16, "proposals per annealing round")
	stride := fs.Int("stride", transport.DefaultStride, "node stride of the strided baseline")
	perNode := fs.Int("per-node", transport.DefaultPerNode, "ranks per node of the packed baseline")
	toplinks := fs.Int("toplinks", 5, "contended links of the winner's census to print")
	mapping := fs.Int("mapping", 0, "print the first N rank→node assignments of the winner")
	topology := fs.String("topology", "", "fabric topology to optimize on (see rrsim; default: the tapered fat-tree)")
	useSurrogate := fs.Bool("surrogate", false,
		"two-tier search: the analytic surrogate screens a wider candidate pool, the DES replays only the shortlist")
	screenFactor := fs.Int("screen-factor", 4, "surrogate screening ratio: candidates generated per DES replay (with -surrogate)")
	anchors := fs.Int("anchors", 12, "DES-replayed calibration anchors for the surrogate (with -surrogate)")
	fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "rrtrace optimize: -i is required")
		return 2
	}
	pol, ok := checkFlags("optimize", *congestion, *stride, *perNode, *toplinks)
	if !ok {
		return 2
	}
	tr, err := trace.Load(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fab, err := topoFabric(*topology)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrtrace optimize: %v\n", err)
		return 2
	}
	starts, err := placement.Baselines(fab, tr.Meta.Ranks, *stride, *perNode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrtrace optimize: %v\n", err)
		return 1
	}
	cfg := placement.Config{
		Trace: tr,
		Replay: trace.ReplayConfig{
			Fabric:      fab,
			Profile:     ib.OpenMPI(),
			Policy:      pol,
			SkipCompute: !*fullSchedule,
		},
		Starts:       starts,
		Seed:         *seed,
		Workers:      *workers,
		GreedyRounds: *greedyRounds,
		GreedyBatch:  *greedyBatch,
		AnnealRounds: *annealRounds,
		AnnealBatch:  *annealBatch,
		Surrogate:    *useSurrogate,
		ScreenFactor: *screenFactor,
		Anchors:      *anchors,
	}
	start := time.Now()
	res, err := placement.Optimize(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	wall := time.Since(start)
	objective := "communication-only"
	if *fullSchedule {
		objective = "full-schedule"
	}
	fmt.Printf("optimized %d-rank placement over the %s schedule (congestion %s): %d evaluations, %v wall clock\n",
		res.Ranks, objective, *congestion, res.Evaluations, wall.Round(time.Millisecond))
	if tj := res.Trajectory; tj.SurrogateEvals > 0 {
		fmt.Printf("  trajectory: %d DES replays (%.0f/s) + %d surrogate prices (%.0f/s), %.1fx per-eval speedup, %d duplicates deduped\n",
			tj.DESEvals, tj.DESRate(), tj.SurrogateEvals, tj.SurrogateRate(), tj.Speedup(), tj.DedupHits)
	} else if tj.DedupHits > 0 {
		fmt.Printf("  trajectory: %d DES replays (%.0f/s), %d duplicates deduped\n",
			tj.DESEvals, tj.DESRate(), tj.DedupHits)
	}
	fmt.Println("  baselines:")
	for _, b := range res.Baselines {
		fmt.Printf("    %-8s %v\n", b.Name, b.Time)
	}
	fmt.Printf("  winner: %v from the %s start (%.4fx improvement)\n", res.BestTime, res.Start, res.Improvement)
	for _, r := range res.Rounds {
		fmt.Printf("    %s %d: accepted %d, current %v, best %v\n", r.Phase, r.Round, r.Accepted, r.Current, r.Best)
	}
	// The winner replayed once more, fully observed, on a fresh
	// engine: the pooled search's makespan must reproduce exactly.
	obs := cfg.Replay
	obs.Places = res.Best
	obs.Observe = trace.ObserveCensus
	final, err := trace.Replay(tr, obs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if final.Time != res.BestTime {
		fmt.Fprintf(os.Stderr, "rrtrace optimize: pooled objective %v does not reproduce under a fresh replay (%v)\n",
			res.BestTime, final.Time)
		return 1
	}
	fmt.Printf("  winner verified: %v reproduced on a fresh replay, %v on the wire\n", final.Time, final.WireBytes)
	if c := final.Congestion; c != nil {
		fmt.Printf("  census: %d links carried flows, %d queued, %v total wait (uplink tier: %d queued, %v)\n",
			c.Links, c.Queued, c.TotalWait, c.UplinkQueued, c.UplinkWait)
		n := *toplinks
		if n > len(c.Top) {
			n = len(c.Top)
		}
		for _, u := range c.Top[:n] {
			fmt.Printf("    %v\n", u)
		}
	}
	if n := min(*mapping, len(res.Best)); n > 0 {
		fmt.Printf("  first %d assignments:\n", n)
		for rank, ep := range res.Best[:n] {
			fmt.Printf("    rank %3d -> %v core %d\n", rank, ep.Node, ep.Core)
		}
	}
	return 0
}

// checkFlags reads the -congestion flag into its transport policy (off
// is the zero Policy, the uncongested fabric, which keeps no census) and
// rejects bad placement and census flag values as usage errors, with
// one line on stderr.
func checkFlags(cmd, congestion string, stride, perNode, toplinks int) (transport.Policy, bool) {
	pol, err := transport.ParsePolicy(congestion)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrtrace %s: %v\n", cmd, err)
		return pol, false
	}
	switch {
	case stride < 1:
		fmt.Fprintf(os.Stderr, "rrtrace %s: -stride %d below 1\n", cmd, stride)
	case perNode < 1 || perNode > transport.Cores:
		fmt.Fprintf(os.Stderr, "rrtrace %s: -per-node %d outside 1..%d\n", cmd, perNode, transport.Cores)
	case toplinks < 0:
		fmt.Fprintf(os.Stderr, "rrtrace %s: -toplinks %d below 0\n", cmd, toplinks)
	default:
		return pol, true
	}
	return pol, false
}

// topoFabric builds the full-scale fabric for a -topology flag value
// ("" = the default tapered fat-tree, identical to roadrunner.Fabric()).
func topoFabric(name string) (*fabric.System, error) {
	if name == "" {
		name = fabric.DefaultTopology
	}
	return fabric.NewTopology(name)
}

func replay(args []string) int {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "", "trace file (required)")
	placementName := fs.String("placement", "block",
		"rank→node mapping: block, strided, packed — or all, replaying every mapping as independent runs")
	stride := fs.Int("stride", transport.DefaultStride, "node stride for -placement strided")
	perNode := fs.Int("per-node", transport.DefaultPerNode, "ranks per node for -placement packed")
	core := fs.Int("core", 1, "issuing Opteron core (0..3) for block/strided placements")
	congestion := fs.String("congestion", "on",
		"link congestion: on holds wormhole channels on every routed cable; off is the infinite-capacity fabric")
	skipCompute := fs.Bool("skip-compute", false, "strip compute records: replay the bare communication schedule")
	toplinks := fs.Int("toplinks", 5, "contended links to print after a congested replay")
	messages := fs.Int("messages", 0, "print per-message timing for the first N sends")
	topology := fs.String("topology", "", "fabric topology to replay on (see rrsim; default: the tapered fat-tree)")
	fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "rrtrace replay: -i is required")
		return 2
	}
	pol, ok := checkFlags("replay", *congestion, *stride, *perNode, *toplinks)
	if !ok {
		return 2
	}
	if err := transport.CheckCore(*core); err != nil {
		fmt.Fprintf(os.Stderr, "rrtrace replay: -%v\n", err)
		return 2
	}
	names := []string{*placementName}
	if *placementName == "all" {
		names = transport.PlacementNames
	} else if !slices.Contains(transport.PlacementNames, *placementName) {
		fmt.Fprintf(os.Stderr, "rrtrace replay: unknown placement %q\n", *placementName)
		return 2
	}
	tr, err := trace.Load(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fab, err := topoFabric(*topology)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrtrace replay: %v\n", err)
		return 2
	}
	placements := make([][]transport.Endpoint, len(names))
	for i, name := range names {
		if placements[i], err = transport.NamedPlacement(name, fab, tr.Meta.Ranks, *stride, *perNode, *core); err != nil {
			fmt.Fprintf(os.Stderr, "rrtrace replay: %v\n", err)
			return 1
		}
	}
	cfg := trace.ReplayConfig{
		Fabric:      fab,
		Profile:     ib.OpenMPI(),
		Policy:      pol,
		SkipCompute: *skipCompute,
		Observe:     trace.ObserveAll,
	}
	if *placementName == "all" {
		cfg.Observe = trace.ObserveCensus
		return replayAll(tr, cfg, names, placements, *congestion)
	}
	cfg.Places = placements[0]
	start := time.Now()
	res, err := trace.Replay(tr, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	wall := time.Since(start)
	fmt.Printf("replayed %s under %s placement (congestion %s): %v simulated\n",
		res.Name, *placementName, *congestion, res.Time)
	fmt.Printf("  %d messages, %v on the wire\n", res.Messages, res.WireBytes)
	st := res.EngineStats
	fmt.Printf("  engine: %d events, calendar peak %d, %.0f events/s host\n",
		st.Dispatched, st.CalendarPeak, float64(st.Dispatched)/wall.Seconds())
	if c := res.Congestion; c != nil {
		fmt.Printf("  census: %d links carried flows, %d queued, %v total wait (uplink tier: %d queued, %v)\n",
			c.Links, c.Queued, c.TotalWait, c.UplinkQueued, c.UplinkWait)
		n := *toplinks
		if n > len(c.Top) {
			n = len(c.Top)
		}
		for _, u := range c.Top[:n] {
			fmt.Printf("    %v\n", u)
		}
	}
	if *messages > 0 {
		n := *messages
		if n > len(res.Sends) {
			n = len(res.Sends)
		}
		fmt.Printf("  first %d sends:\n", n)
		for _, m := range res.Sends[:n] {
			fmt.Printf("    %v\n", m)
		}
	}
	return 0
}

// replayAll replays the trace under every named placement as
// independent runs on GOMAXPROCS pooled evaluators, with results
// byte-identical to serial replays of the same placements.
func replayAll(tr *trace.Trace, cfg trace.ReplayConfig, names []string,
	placements [][]transport.Endpoint, congestion string) int {
	start := time.Now()
	pool, err := trace.NewEvaluatorPool(tr, cfg, runtime.GOMAXPROCS(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer pool.Close()
	results, err := pool.EvaluateMany(placements, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	wall := time.Since(start)
	fmt.Printf("replayed %s under %d placements (congestion %s) as independent runs: %v wall clock\n",
		tr.Meta.Name, len(placements), congestion, wall.Round(time.Millisecond))
	for i, res := range results {
		fmt.Printf("  %-8s %v simulated, %d messages, %v on the wire, %d events\n",
			names[i], res.Time, res.Messages, res.WireBytes, res.EngineStats.Dispatched)
		if c := res.Congestion; c != nil {
			fmt.Printf("           census: %d links carried flows, %d queued, %v total wait\n",
				c.Links, c.Queued, c.TotalWait)
		}
	}
	return 0
}
