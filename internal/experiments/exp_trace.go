package experiments

import (
	"fmt"

	"roadrunner/internal/scenario"
	"roadrunner/internal/transport"
)

// The trace-replay experiment runs the first real application phase over
// the congested transport: a captured Sweep3D source iteration (the KBA
// wavefront schedule of an 8x8 rank grid) replayed under block, strided
// and packed rank→node placements, each on the wormhole and the
// infinite-capacity fabric, full-schedule and communication-only. The
// checks pin the placement laws the replay exposes: hop profiles order
// as block < strided while HCA sharing makes packed the slowest bare
// schedule despite the fewest hops, only the strided mapping queues on
// the 2:1-tapered uplink tier, and the compute-dominated iteration
// itself rides the taper essentially unthrottled — the property the
// Roadrunner designers sized the reduced tree around.
func init() {
	register("trace-replay", "Sweep3D trace replay vs rank placement", "§V.A / §II.C scenario",
		"Captures one Sweep3D iteration as a point-to-point trace and replays it over the congested transport under block/strided/packed placements",
		runTraceReplay)
}

func runTraceReplay() *Artifact {
	a := newArtifact("trace-replay", "Sweep3D trace replay vs rank placement", "§V.A / §II.C scenario")
	rep, err := scenario.TraceReplay()
	if err != nil {
		a.Checks.True("sweep runs", false, err.Error())
		return a
	}

	tc := newTableHelper("Captured trace", "quantity", "value")
	tc.AddRow("trace", rep.TraceName)
	tc.AddRow("ranks", rep.Ranks)
	tc.AddRow("records", rep.Records)
	tc.AddRow("sends", rep.Sends)
	tc.AddRow("payload total", rep.TraceBytes.String())
	tc.AddRow("capture iteration (CML path)", rep.CaptureIteration.String())
	tc.AddNote("one source iteration of Sweep3D %dx%d on the %v grid, captured from the DES run",
		scenario.TraceReplayPx, scenario.TraceReplayPy, scenario.TraceReplayGrid)
	a.Tables = append(a.Tables, tc)

	t := newTableHelper("Replay vs placement (congested wormhole fabric vs infinite capacity)",
		"placement", "hops/msg", "wire bytes", "baseline", "congested", "x", "comm base", "comm cong", "x", "uplink wait")
	byName := map[string]scenario.TraceReplayPoint{}
	for _, p := range rep.Points {
		byName[p.Placement] = p
		t.AddRow(p.Placement, fmt.Sprintf("%.2f", p.MeanHops), p.WireBytes.String(),
			p.Baseline.String(), p.Congested.String(), fmt.Sprintf("%.3f", p.Slowdown),
			p.CommBaseline.String(), p.CommCongested.String(), fmt.Sprintf("%.3f", p.CommSlowdown),
			p.UplinkWait.String())
	}
	t.AddNote("comm columns replay the schedule with compute records stripped")
	a.Tables = append(a.Tables, t)

	block, okB := byName["block"]
	strided, okS := byName["strided"]
	packed, okP := byName["packed"]
	a.Checks.True("all three placements replayed", okB && okS && okP,
		fmt.Sprintf("%d points", len(rep.Points)))
	if !okB || !okS || !okP {
		return a
	}

	th := newTableHelper(fmt.Sprintf("Hottest links, strided placement (stride %d, congested)", transport.DefaultStride),
		"link", "msgs", "wait", "utilization")
	for _, u := range strided.Top {
		th.AddRow(u.Link.String(), u.Messages, u.Wait.String(), fmt.Sprintf("%.1f%%", 100*u.Utilization))
	}
	th.AddNote("consecutive ranks in consecutive CUs: every boundary exchange crosses the uplink tier")
	a.Tables = append(a.Tables, th)

	// The schedule is identical under every placement; only the fabric
	// path changes.
	a.Checks.True("message count is placement-invariant",
		block.Messages == strided.Messages && block.Messages == packed.Messages &&
			int(block.Messages) == rep.Sends,
		fmt.Sprintf("%d messages = %d trace sends", block.Messages, rep.Sends))
	a.Checks.True("packed placement keeps boundary exchanges on-node",
		packed.WireBytes < block.WireBytes && block.WireBytes == strided.WireBytes,
		"intra-node messages never reach the wire")
	a.Checks.True("hop profile orders packed < block < strided",
		packed.MeanHops < block.MeanHops && block.MeanHops < strided.MeanHops,
		fmt.Sprintf("%.2f / %.2f / %.2f hops per message", packed.MeanHops, block.MeanHops, strided.MeanHops))

	// Full-schedule replays: Sweep3D interleaves its exchanges with
	// block compute, so the congested fabric moves the iteration by at
	// most a few percent under every mapping — the wavefront rides the
	// 2:1 taper the way the designers intended.
	for _, p := range []scenario.TraceReplayPoint{block, strided, packed} {
		a.Checks.RatioInBand(fmt.Sprintf("%s iteration rides the taper", p.Placement),
			float64(p.Congested), float64(p.Baseline), 0.95, 1.05)
	}

	// Bare communication schedule: the strided mapping pays for its
	// deep routes, and packed pays even more for four ranks sharing each
	// node's HCA — placement sensitivity the hop census alone
	// mispredicts (packed has the fewest hops and the slowest schedule).
	a.Checks.True("strided comm schedule slower than block",
		strided.CommBaseline > block.CommBaseline,
		fmt.Sprintf("%v vs %v", strided.CommBaseline, block.CommBaseline))
	a.Checks.True("HCA sharing beats hop count: packed comm slowest despite fewest hops",
		packed.CommBaseline > strided.CommBaseline && packed.MeanHops < strided.MeanHops,
		fmt.Sprintf("packed %v at %.2f hops vs strided %v at %.2f hops",
			packed.CommBaseline, packed.MeanHops, strided.CommBaseline, strided.MeanHops))
	a.Checks.RatioInBand("comm schedule placement spread (slowest/fastest)",
		float64(packed.CommBaseline), float64(block.CommBaseline), 1.2, 2.5)

	// Congestion census: only the strided mapping touches the tapered
	// uplinks; block and packed stay inside one CU's crossbars.
	a.Checks.True("strided queues on the uplink tier",
		strided.UplinkQueued > 0 && strided.UplinkWait > 0,
		fmt.Sprintf("%d queued flows, %v waiting", strided.UplinkQueued, strided.UplinkWait))
	a.Checks.True("block and packed leave the uplinks untouched",
		block.UplinkQueued == 0 && packed.UplinkQueued == 0,
		"both mappings fit inside CU 1")
	a.Checks.True("block placement never queues at all", block.QueuedFlows == 0,
		"neighbor exchanges spread cleanly over the CU spines")

	// The replay crosses the host-MPI path; the capture ran over the
	// CML path (SPE->PPE->DaCS->IB). The replayed iteration must come
	// out faster than the capture's, by the Fig. 6 path-cost gap.
	a.Checks.RatioInBand("host-path replay faster than Cell-path capture",
		float64(block.Baseline), float64(rep.CaptureIteration), 0.80, 1.0)
	return a
}
