// Command rrsim explores the simulated Roadrunner machine: topology
// queries over the InfiniBand fat tree, chip microbenchmarks, and the
// communication path composition between any two SPEs.
//
// Usage:
//
//	rrsim 0 2000                # crossbar hops and latency between nodes
//	rrsim -census               # Table I census from node 0
//	rrsim -audit                # fabric structural audit
//	rrsim -chip                 # SPU pipeline microbenchmarks
//	rrsim -memory               # Table III memory characterisation
//	rrsim -des                  # Sweep3D on the DES machine + engine stats
//	                            # + its schedule replayed under three placements
//	rrsim -collective allreduce-ring -ranks 64 -msg 1048576
//	                            # one collective on the DES + engine stats
//	rrsim -collective list      # the implemented algorithms
//	rrsim -collective alltoall-pairwise -ranks 360 -msg 65536 -toplinks 8
//	                            # congested run + the most contended links
//	rrsim -collective alltoall-pairwise -ranks 360 -congestion=off
//	                            # infinite-capacity fabric (the PR 2 model)
//	rrsim -topology torus -collective alltoall-pairwise -ranks 360
//	                            # same collective on an alternative fabric
//	rrsim -topology fattree-full -census
//	                            # hop census of the full-bisection tree
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"roadrunner"
	"roadrunner/internal/cml"
	"roadrunner/internal/collectives"
	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/isa"
	"roadrunner/internal/microbench"
	"roadrunner/internal/scenario"
	"roadrunner/internal/spu"
	"roadrunner/internal/sweep3d"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run executes one rrsim invocation and returns its exit status: 0
// success, 2 on a usage or run error.
func run(args []string) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	census := fs.Bool("census", false, "print the Table I hop census")
	audit := fs.Bool("audit", false, "print the fabric structural audit")
	chip := fs.Bool("chip", false, "print SPU pipeline microbenchmarks")
	memory := fs.Bool("memory", false, "print the Table III memory characterisation")
	des := fs.Bool("des", false, "run Sweep3D on the discrete-event machine and print engine stats")
	ranks := fs.Int("ranks", 32, "ranks for -des (placed px x py) and -collective (one per node)")
	coll := fs.String("collective", "", "run one collective algorithm by name, or 'list'")
	msg := fs.Int64("msg", 8, "per-rank payload bytes for -collective")
	congestion := fs.String("congestion", "on",
		"link congestion for -collective: on routes messages over the cable topology with finite-capacity channels; off reproduces the infinite-capacity fabric")
	toplinks := fs.Int("toplinks", 5, "contended links to print after a congested -collective run (the census keeps the 10 hottest)")
	topology := fs.String("topology", "",
		"fabric topology for node-pair queries, -census, -audit, -collective and -des (see fabric.Topologies; default: the paper's tapered fat-tree)")
	fs.Parse(args)
	if *topology == "" {
		*topology = fabric.DefaultTopology
	}
	fab, err := fabric.NewTopology(*topology)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrsim: %v\n", err)
		return 2
	}
	args = fs.Args()
	if len(args) == 2 {
		var a, b int
		if _, err := fmt.Sscanf(args[0]+" "+args[1], "%d %d", &a, &b); err != nil {
			fmt.Fprintln(os.Stderr, "usage: rrsim <nodeA> <nodeB>")
			return 2
		}
		na, nb := fabric.FromGlobal(a), fabric.FromGlobal(b)
		for _, n := range []fabric.NodeID{na, nb} {
			if !fab.Contains(n) {
				fmt.Fprintf(os.Stderr, "rrsim: node %v outside the %d-node fabric\n", n, fab.Nodes())
				return 2
			}
		}
		fmt.Printf("%v -> %v (%s): %d crossbar hops, %v switch latency, %v MPI zero-byte\n",
			na, nb, fab.PairClass(na, nb), fab.HopsGlobal(a, b), fab.HopLatency(na, nb),
			microbench.Fig10Latency(fab, nb))
		return 0
	}

	if *census {
		c := fab.Census(fabric.NodeID{})
		fmt.Printf("self=%d sameXbar=%d sameCU=%d near(same/other xbar)=%d/%d far=%d/%d total=%d mean=%.2f\n",
			c.Self, c.SameXbar, c.SameCU, c.NearCUsSameXbar, c.NearCUsOtherXbar,
			c.FarCUsSameXbar, c.FarCUsOtherXbar, c.Total, c.MeanHops)
	}
	if *audit {
		a := fab.Audit()
		fmt.Printf("%+v\n", a)
	}
	if *chip {
		for _, m := range []*spu.Model{spu.CellBE(), spu.PowerXCell8i()} {
			fmt.Printf("%s:\n", m)
			for _, g := range isa.Groups() {
				fmt.Printf("  %-5s latency %2d cycles, repetition %d\n",
					g, m.MeasureLatency(g), m.MeasureRepetition(g))
			}
			fmt.Printf("  sustained DP %v x8 SPEs, SP %v x8\n",
				m.PeakDPFlops(), m.PeakSPFlops())
		}
	}
	if *memory {
		for _, r := range microbench.TableIII() {
			fmt.Printf("%-22s triad %8.2f GB/s   latency %6.1f ns\n",
				r.Processor, r.Triad.GBps(), r.Latency.Nanoseconds())
		}
	}
	if *des {
		px := *ranks / 4
		if px < 1 {
			px = 1
		}
		py := *ranks / px
		if py < 1 {
			py = 1
		}
		if px*py != *ranks {
			fmt.Fprintf(os.Stderr, "note: -ranks %d is not px*py factorable here; running %dx%d = %d ranks\n",
				*ranks, px, py, px*py)
		}
		cfg := sweep3d.Config{I: 5, J: 5, K: 40, MK: 10, Angles: 6}
		start := time.Now()
		res, err := sweep3d.RunOnDES(cfg, px, py, cml.CurrentSoftware())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		wall := time.Since(start)
		st := res.EngineStats
		fmt.Printf("sweep3d %dx%d ranks: iteration %v (simulated), balance err %.2e\n",
			px, py, res.IterationTime, res.BalanceError())
		fmt.Printf("engine: %d events dispatched, calendar peak %d, %.0f events/s host\n",
			st.Dispatched, st.CalendarPeak,
			float64(st.Dispatched)/wall.Seconds())
		if err := placementReplays(fab, px, py); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if *coll != "" {
		if *coll == "list" {
			for _, op := range roadrunner.CollectiveOps() {
				fmt.Println(op)
			}
			return 0
		}
		pol, err := transport.ParsePolicy(*congestion)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rrsim: %v\n", err)
			return 2
		}
		start := time.Now()
		cfg, err := collectives.DefaultConfigOn(*topology, *ranks)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		cfg.Congestion = pol
		res, err := collectives.Run(cfg, collectives.Op(*coll), units.Size(*msg))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		wall := time.Since(start)
		bw := ""
		if res.WireBytes > 0 {
			bw = fmt.Sprintf(", %.4g MB/s effective", res.Bandwidth().MBps())
		}
		fmt.Printf("%s over %d ranks, %v per rank: %v (fastest rank %v%s)\n",
			res.Op, res.Ranks, res.Size, res.Time, res.MinTime, bw)
		fmt.Printf("%d messages, %v on the wire\n", res.Messages, res.WireBytes)
		if c := res.Congestion; c != nil {
			fmt.Printf("congestion: %d link channels used, %d queued flows, %v total wait\n",
				c.Links, c.Queued, c.TotalWait)
			n := *toplinks
			if n > len(c.Top) {
				n = len(c.Top)
			}
			if n > 0 {
				fmt.Printf("top %d contended links:\n", n)
				for _, u := range c.Top[:n] {
					fmt.Printf("  %s\n", u)
				}
			}
		}
		st := res.EngineStats
		fmt.Printf("engine: %d events dispatched, calendar peak %d, %.0f events/s host\n",
			st.Dispatched, st.CalendarPeak, float64(st.Dispatched)/wall.Seconds())
	}
	if !*census && !*audit && !*chip && !*memory && !*des && *coll == "" && len(args) == 0 {
		fs.Usage()
	}
	return 0
}

// placementReplays reruns the -des Sweep3D model as independent
// placement replays: the run's wavefront schedule is captured as a
// trace and replayed under the three standard placements on the
// congested fabric, spread over GOMAXPROCS workers. The results are
// byte-identical to serial replays of the same placements.
func placementReplays(fab *fabric.System, px, py int) error {
	cfg := sweep3d.Config{I: 5, J: 5, K: 40, MK: 10, Angles: 6}
	_, tr, err := sweep3d.CaptureDES(cfg, px, py, cml.CurrentSoftware())
	if err != nil {
		return err
	}
	placements := make([][]transport.Endpoint, len(scenario.TraceReplayPlacementNames))
	for i, name := range scenario.TraceReplayPlacementNames {
		p, err := scenario.TraceReplayPlaces(name, fab, tr.Meta.Ranks)
		if err != nil {
			return err
		}
		placements[i] = p
	}
	start := time.Now()
	workers := runtime.GOMAXPROCS(0)
	pool, err := trace.NewEvaluatorPool(tr, trace.ReplayConfig{
		Fabric:  fab,
		Profile: ib.OpenMPI(),
		Policy:  transport.Congested(),
	}, workers)
	if err != nil {
		return err
	}
	defer pool.Close()
	results, err := pool.EvaluateMany(placements, workers)
	if err != nil {
		return err
	}
	fmt.Printf("placement replays: %d on %d workers, %v wall clock\n",
		len(results), min(workers, len(results)), time.Since(start).Round(time.Millisecond))
	for i, r := range results {
		fmt.Printf("  %-8s %9d events, makespan %v\n",
			scenario.TraceReplayPlacementNames[i], r.EngineStats.Dispatched, r.Time)
	}
	return nil
}
