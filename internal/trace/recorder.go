package trace

import (
	"fmt"

	"roadrunner/internal/units"
)

// Recorder accumulates per-rank record streams during a capture run.
// Capture hooks (e.g. sweep3d.CaptureDES) call Compute/Send/Recv from
// the application's DES events — the engine runs one event at a time, so
// no locking is needed — and Trace() assembles the
// canonical trace: sequence numbers from per-rank program order, recv
// dependencies from FIFO matching on each (src, dst, tag) channel, and a
// full Validate before anything is returned.
type Recorder struct {
	meta    Meta
	perRank [][]Record
}

// NewRecorder starts a capture over the given number of ranks.
func NewRecorder(name, app string, ranks int) *Recorder {
	if ranks < 1 {
		panic(fmt.Sprintf("trace: recorder over %d ranks", ranks))
	}
	return &Recorder{
		meta:    Meta{Name: name, App: app, Ranks: ranks},
		perRank: make([][]Record, ranks),
	}
}

// SetAttr records a capture parameter in the trace metadata.
func (rec *Recorder) SetAttr(key, value string) {
	if rec.meta.Attrs == nil {
		rec.meta.Attrs = make(map[string]string)
	}
	rec.meta.Attrs[key] = value
}

// append adds a record to the rank's stream, assigning its sequence
// number.
func (rec *Recorder) append(r Record) {
	if r.Rank < 0 || r.Rank >= rec.meta.Ranks {
		panic(fmt.Sprintf("trace: record for rank %d of %d", r.Rank, rec.meta.Ranks))
	}
	r.Seq = len(rec.perRank[r.Rank])
	rec.perRank[r.Rank] = append(rec.perRank[r.Rank], r)
}

// Compute records local work of the given duration, completed at the
// capture-run instant at.
func (rec *Recorder) Compute(rank int, d, at units.Time) {
	rec.append(Record{Rank: rank, Kind: KindCompute, Peer: NoPeer, Duration: d, At: at, Dep: NoDep})
}

// Send records a blocking send of size bytes to dst.
func (rec *Recorder) Send(rank, dst, tag int, size units.Size, at units.Time) {
	rec.append(Record{Rank: rank, Kind: KindSend, Peer: dst, Tag: tag, Size: size, At: at, Dep: NoDep})
}

// Recv records the receipt of the matching send from src. The
// dependency link is resolved by Trace() via FIFO matching, so capture
// hooks only report what the application saw.
func (rec *Recorder) Recv(rank, src, tag int, size units.Size, at units.Time) {
	rec.append(Record{Rank: rank, Kind: KindRecv, Peer: src, Tag: tag, Size: size, At: at, Dep: NoDep})
}

// Trace assembles and validates the captured trace. The recorder can
// keep accumulating afterwards; the returned trace is a snapshot.
func (rec *Recorder) Trace() (*Trace, error) {
	n := 0
	for _, rs := range rec.perRank {
		n += len(rs)
	}
	t := &Trace{Meta: rec.meta, Records: make([]Record, 0, n)}
	if attrs := rec.meta.Attrs; attrs != nil {
		t.Meta.Attrs = make(map[string]string, len(attrs))
		for k, v := range attrs {
			t.Meta.Attrs[k] = v
		}
	}
	for _, rs := range rec.perRank {
		t.Records = append(t.Records, rs...)
	}
	if err := resolveDeps(t); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: capture produced an invalid trace: %w", err)
	}
	return t, nil
}

// resolveDeps fills each recv's Dep with the Seq of the matching send,
// pairing the k-th recv on a channel with the k-th send. Sends are
// matched in the sender's program order and recvs in the receiver's —
// the FIFO channel discipline the replay engine (and MPI message
// ordering between a rank pair with one tag) guarantees. A recv
// without a matching send is an error (the first in record order).
func resolveDeps(t *Trace) error {
	sends, recvs := t.channels()
	orphan := -1
	for k, rs := range recvs {
		for j, ri := range rs {
			if j < len(sends[k]) {
				t.Records[ri].Dep = t.Records[sends[k][j]].Seq
			} else if orphan < 0 || ri < orphan {
				orphan = ri
			}
		}
	}
	if orphan >= 0 {
		return fmt.Errorf("trace: capture: %v has no matching send", t.Records[orphan])
	}
	return nil
}
