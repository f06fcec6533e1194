package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval around a call the benchmark makes into a
// layer's public function (or, when reported is set, an interval the
// program reported in a returned struct or a job status, placed on the
// benchmark's clock). Spans of one op share the op id; parent is the id of
// the enclosing span, -1 for an op's root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Reported bool   `json:"reported,omitempty"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, StartNs: now, EndNs: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// add records a finished interval, timed by the benchmark or reported by
// the program.
func (t *tracer) add(op, parent int, name string, start, end time.Time, reported bool) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(), Reported: reported})
	return len(t.spans) - 1
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// layerOf maps a span name to its layer: the part before the first dot;
// an op's root span ("op") belongs to the benchmark itself ("bench").
func layerOf(name string) string {
	if l, _, ok := strings.Cut(name, "."); ok {
		return l
	}
	return "bench"
}

// selfTimes returns each span name's self time summed over the traced
// ops, the ops' total time and the number of traced ops. A span is
// first clipped to its parent's interval (a reported server-side
// interval that began while the client was still submitting is not on
// the op's critical path); its self time is then its clipped duration
// minus the part of it its clipped children cover.
func (t *tracer) selfTimes() (self map[string]time.Duration, total time.Duration, ops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	clipped := make([]span, len(t.spans))
	kids := make(map[int][]span)
	for i, s := range t.spans {
		if s.EndNs < s.StartNs {
			s.EndNs = s.StartNs // never closed: the op failed mid-call
		}
		if s.Parent >= 0 {
			p := clipped[s.Parent] // parents are recorded before their children
			s.StartNs = min(max(s.StartNs, p.StartNs), p.EndNs)
			s.EndNs = max(min(s.EndNs, p.EndNs), s.StartNs)
			kids[s.Parent] = append(kids[s.Parent], s)
		}
		clipped[i] = s
	}
	self = make(map[string]time.Duration)
	for _, s := range clipped {
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - coverage(s, kids[s.ID]))
		if s.Parent < 0 {
			total += time.Duration(s.EndNs - s.StartNs)
			ops++
		}
	}
	return self, total, ops
}

// coverage is the length of the union of the children's intervals
// clipped to the parent.
func coverage(p span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartNs, p.StartNs), min(k.EndNs, p.EndNs)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, end int64
	end = -1 << 62
	for _, x := range iv {
		if x[0] > end {
			sum += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			sum += x[1] - end
			end = x[1]
		}
	}
	return sum
}

// layerTable prints the self time per traced op and the share of op
// time of each layer and, under it, of each span the layer's time comes
// from. An op's root span ("op") is the benchmark's own time.
func (t *tracer) layerTable(w io.Writer, workload string) {
	self, total, ops := t.selfTimes()
	if ops == 0 {
		fmt.Fprintf(w, "per-layer self time, %s: no traced ops\n", workload)
		return
	}
	layers := make(map[string]time.Duration)
	for name, d := range self {
		layers[layerOf(name)] += d
	}
	row := func(label string, d time.Duration) {
		fmt.Fprintf(w, "  %-22s %12.3f %7.1f%%\n", label, ms(d)/float64(ops), 100*float64(d)/float64(total))
	}
	fmt.Fprintf(w, "per-layer self time, %s (%d traced ops, %.3f ms/op):\n", workload, ops, ms(total)/float64(ops))
	fmt.Fprintf(w, "  %-22s %12s %8s\n", "layer / span", "self ms/op", "share")
	for _, l := range byDuration(layers) {
		row(l, layers[l])
		for _, name := range byDuration(self) {
			if layerOf(name) == l && name != l {
				row("  "+name, self[name])
			}
		}
	}
}

// byDuration returns the map's keys, largest value first.
func byDuration(m map[string]time.Duration) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
