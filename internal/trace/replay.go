package trace

import (
	"fmt"
	"math"

	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/sim"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// Observe selects which of a replay's expensive observers run. The zero
// value is makespan-only: the result carries the completion times, the
// transport counters and the engine stats, but no per-send timing and
// no link census — the configuration the placement optimizer's inner
// loop runs, where building and sorting a census per candidate would be
// pure waste. Reporting callers opt in to what they read.
type Observe uint8

const (
	// ObserveSends records per-send MessageTiming (issue, sender-visible
	// completion, delivery) for every send record.
	ObserveSends Observe = 1 << iota
	// ObserveCensus builds the link-contention census after the replay
	// (congestion-policy runs only; off-policy nets have no link state).
	ObserveCensus

	// ObserveAll enables every observer: the reporting configuration.
	ObserveAll = ObserveSends | ObserveCensus
)

// ReplayConfig places a trace's ranks on the machine and selects the
// transport models the replay runs over.
type ReplayConfig struct {
	Fabric  *fabric.System
	Profile ib.Profile
	// Places maps rank → (node, core); it must cover every trace rank.
	// Two ranks on one node exchange over the shared-memory path, so
	// placement density changes both hop profiles and wire traffic.
	// (Evaluators ignore this field: the placement is the argument of
	// each Evaluate call.)
	Places []transport.Endpoint
	// Policy is the transport's congestion model: transport.Congested()
	// for wormhole link channels and a link census, the zero value for
	// the infinite-capacity fabric, which keeps no link state and
	// reports no census.
	Policy transport.Policy
	// ComputeScale multiplies compute-record durations (0 means 1.0):
	// replay the same schedule on a faster or slower processor model
	// without recapturing. Negative and non-finite values are rejected.
	ComputeScale float64
	// SkipCompute drops compute records entirely: the bare communication
	// schedule, for isolating placement and congestion effects.
	SkipCompute bool
	// Observe opts in to the expensive observers (per-send timing, link
	// census). The zero value is makespan-only.
	Observe Observe
}

// computeScale normalizes and validates the config's compute scaling.
func computeScale(scale float64) (float64, error) {
	if scale == 0 {
		return 1, nil
	}
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return 0, fmt.Errorf("trace: replay: non-finite compute scale %g", scale)
	}
	if scale < 0 {
		return 0, fmt.Errorf("trace: replay: negative compute scale %g", scale)
	}
	return scale, nil
}

// MessageTiming is one send record's replay timing.
type MessageTiming struct {
	SrcRank, DstRank, Tag int
	Size                  units.Size
	// SendStart is when the sender issued the transfer, SendEnd when the
	// blocking send returned (software overheads, rendezvous, link
	// admission and the HCA stream all charged), Delivered when the
	// payload reached the receiver's queue after the fabric traversal.
	SendStart, SendEnd, Delivered units.Time
}

// String renders the timing on one line.
func (m MessageTiming) String() string {
	return fmt.Sprintf("%d->%d tag %d %v: start %v send %v delivered %v",
		m.SrcRank, m.DstRank, m.Tag, m.Size,
		m.SendStart, m.SendEnd-m.SendStart, m.Delivered)
}

// ReplayResult is the outcome of replaying one trace.
type ReplayResult struct {
	Name  string
	Ranks int
	// Time is the makespan: the completion time of the slowest rank.
	Time units.Time
	// RankFinish is each rank's completion time.
	RankFinish []units.Time
	// Sends holds per-message timing, one entry per send record, in
	// canonical record order (nil unless ObserveSends is set).
	Sends []MessageTiming
	// Messages and WireBytes are the transport's counters (WireBytes
	// excludes intra-node shared-memory messages, so it varies with
	// placement density).
	Messages  int64
	WireBytes units.Size
	// Congestion is the link-contention census (nil unless
	// ObserveCensus is set and the replay ran with a congestion
	// policy).
	Congestion *transport.Census
	// EngineStats snapshots the DES engine at completion.
	EngineStats sim.Stats
}

// replayMsg is one in-flight payload during replay.
type replayMsg struct {
	src, tag, seq int
}

// replayCensusTop is how many contended links a ReplayResult's census
// retains.
const replayCensusTop = 10

// Replay executes the trace over the transport: one event-driven walker
// per rank steps through the rank's stream in order — compute intervals,
// sends as transport transfer chains, recvs waiting for the matching
// payload — so cross-rank dependencies resolve exactly as the
// application's own message ordering would, under whatever placement and
// congestion policy the config selects. The trace is validated first; a
// valid trace cannot stall the replay.
//
// Replay is the one-shot path: it builds an Evaluator, runs the
// config's placement once and tears the evaluator down. Callers
// evaluating many placements of one trace should hold an Evaluator
// instead and amortize the setup.
func Replay(t *Trace, cfg ReplayConfig) (*ReplayResult, error) {
	e, err := NewEvaluator(t, cfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.Evaluate(cfg.Places)
}
