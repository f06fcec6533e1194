// Command perfbench is the repository's benchmark of record. It runs one
// workload per invocation, measures it for a fixed host-time window and
// prints, as the last line of standard output, one JSON object with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run):
//
//	bash perfbench/run.sh --workload collective-saturation --seed 1 --seconds 50 --trace 0
//
// The workloads call the public functions of internal/collectives and
// internal/placement; the traced run adds rungs that call each layer
// underneath in isolation, internal/serve among them. Every op's output
// is checked outside its timed interval and a failed check counts as a
// failed op. README.md explains the workloads, the metrics and the
// traced run.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for the span file of a traced run
}

// metric is one named value with its unit, as printed in the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// decl declares a metric name and its unit; BENCHMARK.json lists the
// same names (TestMetricsMatchBenchmarkJSON pins the two together).
type decl struct{ name, unit string }

// endToEnd are the untraced run's metrics, reported by every workload.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p75", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload's op never enters reports 0 for its
// op-attributed counters and times, while the rungs (sim.dispatch_ns,
// fabric.route_ns, transport.transfer_ns, trace.*, surrogate.*, serve.*,
// sim.gomaxprocs2_ratio, sim.cluster_speedup_2w) are measured on every
// workload so each traced run carries the whole layer ladder.
var perLayer = []decl{
	{"sim.events_per_op", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.dispatch_ns", "ns"},
	{"sim.gomaxprocs2_ratio", "ratio"},
	{"sim.cluster_speedup_2w", "ratio"},
	{"fabric.route_ns", "ns"},
	{"transport.transfer_ns", "ns"},
	{"transport.messages_per_op", "count"},
	{"transport.queued_per_op", "count"},
	{"transport.wait_sim_ms_per_op", "sim_ms"},
	{"transport.uplink_wait_share", "ratio"},
	{"collectives.sim_time_us", "sim_us"},
	{"trace.decode_ms", "ms"},
	{"trace.evaluate_ms", "ms"},
	{"surrogate.compile_ms", "ms"},
	{"surrogate.price_us", "us"},
	{"surrogate.spearman", "ratio"},
	{"placement.des_evals_per_op", "count"},
	{"placement.surrogate_evals_per_op", "count"},
	{"placement.dedup_hits_per_op", "count"},
	{"placement.des_share", "ratio"},
	{"placement.surrogate_share", "ratio"},
	{"placement.improved_share", "ratio"},
	{"placement.makespan_gain_pct", "%"},
	{"serve.latency_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.polls_per_op", "count"},
	{"serve.coalesced_share", "ratio"},
	{"serve.generator_late_ms", "ms"},
	{"serve.retained_mb_per_job", "MB"},
	{"host.alloc_mb_per_op", "MB"},
	{"host.gc_cpu_share", "ratio"},
	{"host.heap_live_mb_end", "MB"},
	{"bench.tracing_overhead_pct", "%"},
}

// deterministic names the per-layer counters that are a pure function
// of the workload seed: equal seeds give equal values, traced or not,
// and a change that only speeds the program up must not move them.
var deterministic = []string{
	"sim.events_per_op",
	"transport.messages_per_op",
	"transport.queued_per_op",
	"transport.wait_sim_ms_per_op",
	"transport.uplink_wait_share",
	"collectives.sim_time_us",
	"placement.des_evals_per_op",
	"placement.surrogate_evals_per_op",
	"placement.dedup_hits_per_op",
	"placement.improved_share",
	"placement.makespan_gain_pct",
}

// workload is one benchmark input set: how it is run and with how many
// OS threads executing Go code. BENCHMARK.json and README.md say why
// each was chosen.
type workload struct {
	name  string
	procs int
	run   func(o options, tr *tracer) (*runResult, error)
}

var workloads = []workload{
	{
		name:  "collective-saturation",
		procs: 1,
		run:   runCollective,
	},
	{
		name:  "placement-search",
		procs: 1,
		run:   runPlacement,
	},
}

func findWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runResult is what a workload's run hands back for reporting.
type runResult struct {
	setup     []time.Duration // each set-up pass, including its warm-up op
	latencies []time.Duration // successful ops' host latencies
	opsPerSec float64
	attempted int
	failed    int
	failures  []string // first few failure messages
	// counters are the deterministic per-layer values (see
	// deterministic); layer holds the rest of the per-layer metrics.
	counters map[string]float64
	layer    map[string]float64
	digests  map[string]string
	host     hostDelta
}

// fail records one failed op.
func (r *runResult) fail(err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

// record is the run record printed before the result line: where and on
// what the numbers were taken, and which inputs produced them.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	CPUModel   string             `json:"cpu_model"`
	Digests    map[string]string  `json:"input_digests"`
	Attempted  int                `json:"ops_attempted"`
	Failed     int                `json:"ops_failed"`
	Failures   []string           `json:"failures,omitempty"`
	Samples    int                `json:"latency_samples"`
	BeyondP75  int                `json:"samples_beyond_p75"`
	BeyondP90  int                `json:"samples_beyond_p90"`
	SetupRuns  int                `json:"setup_runs"`
	Counters   map[string]float64 `json:"deterministic_counters"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 30, "host seconds to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if o.seconds < 0 {
		return fmt.Errorf("--seconds must not be negative, got %d", o.seconds)
	}
	o.trace = traceFlag == 1
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	res, tr, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}

	rec := record{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: w.procs,
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
		Digests: res.digests, Attempted: res.attempted, Failed: res.failed,
		Failures: res.failures, Samples: len(res.latencies),
		BeyondP75: beyond(res.latencies, 0.75), BeyondP90: beyond(res.latencies, 0.9),
		SetupRuns: len(res.setup),
		Counters:  res.counters,
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}

	if o.trace {
		// A layer the workload's op never enters did no work in it:
		// whatever the workload did not set reads 0.
		vals := map[string]float64{
			"host.alloc_mb_per_op":  res.host.allocMB / math.Max(1, float64(res.host.ops)),
			"host.gc_cpu_share":     res.host.gcShare,
			"host.heap_live_mb_end": res.host.liveMBEnd,
		}
		for k, v := range res.layer {
			vals[k] = v
		}
		for k, v := range res.counters {
			vals[k] = v
		}
		for _, d := range perLayer {
			out.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		if err := tr.write(filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))); err != nil {
			return err
		}
		tr.layerTable(stdout, w.name)
	} else {
		vals := map[string]float64{
			"setup_s":        median(res.setup).Seconds(),
			"ops_per_s":      res.opsPerSec,
			"latency_ms_p50": ms(percentile(res.latencies, 0.5)),
			"latency_ms_p75": ms(percentile(res.latencies, 0.75)),
			"peak_rss_mb":    rss,
		}
		for _, d := range endToEnd {
			out.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
	}
	printTable(stdout, w.name, out.Metrics, o.trace)
	if !o.trace {
		// The p90, printed only from a run with at least tailSamples
		// samples beyond it; not every workload's run has them, so it is
		// not one of the end-to-end metrics.
		if n := rec.BeyondP90; n >= tailSamples {
			fmt.Fprintf(stdout, "  %-34s %16.6f ms\n", "latency_ms_p90", ms(percentile(res.latencies, 0.9)))
		} else {
			fmt.Fprintf(stdout, "  %-34s %16s (%d samples beyond it, fewer than %d)\n", "latency_ms_p90", "n/a", n, tailSamples)
		}
	}
	if !o.trace && w.name == "placement-search" {
		// Search quality: printed with the end-to-end table for this
		// workload, reported as a per-layer counter (README explains).
		fmt.Fprintf(stdout, "  %-34s %16.6f %%\n", "makespan_gain_pct", res.counters["placement.makespan_gain_pct"])
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "record %s\n", line)
	line, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// runWorkload runs one workload at its GOMAXPROCS, with a tracer when
// the run is traced.
func runWorkload(w workload, o options) (*runResult, *tracer, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	res, err := w.run(o, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return res, tr, nil
}

// printTable prints the metrics by name with their units.
func printTable(w io.Writer, workload string, m map[string]metric, traced bool) {
	kind := "end-to-end"
	order := endToEnd
	if traced {
		kind, order = "per-layer", perLayer
	}
	fmt.Fprintf(w, "%s metrics, %s:\n", kind, workload)
	for _, d := range order {
		fmt.Fprintf(w, "  %-34s %16.6f %s\n", d.name, m[d.name].Value, m[d.name].Unit)
	}
}

// tailSamples is how many samples a latency percentile must have
// beyond it to be reported.
const tailSamples = 10

// rateWindow is the stretch of loop time whose ops give one throughput
// sample. ops_per_s is the median of a run's samples, so a burst of
// contention from the host's other tenants that slows a few windows
// does not decide it.
const rateWindow = 5 * time.Second

// closedLoop runs a one-client closed loop over a cycle of inputs: op
// i runs input i mod cycle, the loop ends once seconds have passed and
// at least one whole cycle ran, and check (run outside the timed
// interval) turns a wrong output into a failed op. Each rateWindow of
// loop time gives one throughput sample: the ops that started in it and
// passed their check, over the time all ops that started in it took.
// With a tracer, every other op records spans and the pattern shifts by
// one op each input cycle, so every input is timed both with and
// without spans; the latencies of the two kinds come back separately.
func closedLoop(seconds, cycle int, tr *tracer, res *runResult,
	op func(i int, tr *tracer) (any, error), check func(i int, out any) error) (tracedLat, plainLat []time.Duration) {
	h0 := readHost()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	type window struct {
		done int
		busy time.Duration
	}
	var wins []window
	for i := 0; i < cycle || time.Now().Before(deadline); i++ {
		optr := tr
		if tr != nil && (i+i/cycle)%2 == 1 {
			optr = nil
		}
		res.attempted++
		t0 := time.Now()
		out, err := op(i, optr)
		lat := time.Since(t0)
		k := int(t0.Sub(start) / rateWindow)
		for len(wins) <= k {
			wins = append(wins, window{})
		}
		wins[k].busy += lat
		if err == nil {
			err = check(i, out)
		}
		if err != nil {
			res.fail(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		wins[k].done++
		res.latencies = append(res.latencies, lat)
		if optr != nil {
			tracedLat = append(tracedLat, lat)
		} else {
			plainLat = append(plainLat, lat)
		}
	}
	res.host = readHost().since(h0)
	res.host.ops = res.attempted
	var rates []float64
	for _, w := range wins {
		if w.busy > 0 {
			rates = append(rates, float64(w.done)/w.busy.Seconds())
		}
	}
	res.opsPerSec = medianFloat(rates)
	return tracedLat, plainLat
}

// timedSetups runs setup n times and returns each pass's duration; the
// median is setup_s, so one slow first pass does not decide it.
func timedSetups(n int, setup func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

// setupRuns is how many times each workload sets up per run.
const setupRuns = 5

// tracingOverhead is the traced ops' median latency over the untraced
// ops', as a percentage above 1.
func tracingOverhead(traced, plain []time.Duration) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return 100 * (float64(median(traced))/float64(median(plain)) - 1)
}

// mix derives a per-op seed from the workload seed (splitmix64).
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// digest is the hex SHA-256 of v's JSON encoding (or of raw bytes).
func digest(v any) string {
	b, ok := v.([]byte)
	if !ok {
		var err error
		if b, err = json.Marshal(v); err != nil {
			panic(err) // only plain data is digested
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

// percentile interpolates linearly between the order statistics.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

// beyond counts the samples strictly above the q-th percentile.
func beyond(ds []time.Duration, q float64) int {
	p := percentile(ds, q)
	n := 0
	for _, d := range ds {
		if d > p {
			n++
		}
	}
	return n
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostSample is a runtime/metrics snapshot.
type hostSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

// hostDelta is what the Go runtime did over a timed window.
type hostDelta struct {
	ops       int     // ops attempted in the window
	allocMB   float64 // heap bytes allocated
	gcShare   float64 // GC CPU over all CPU the runtime accounted
	liveMBEnd float64 // live heap after a forced GC at the window's end
}

var hostMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readHost() hostSample {
	s := make([]metrics.Sample, len(hostMetrics))
	for i, n := range hostMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return hostSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// since closes a window opened at h0: the CPU classes are read before
// the forced GC, so the collection made only to measure the live heap
// does not count as the workload's GC work.
func (h hostSample) since(h0 hostSample) hostDelta {
	d := hostDelta{allocMB: (h.allocBytes - h0.allocBytes) / (1 << 20)}
	if cpu := h.totalCPU - h0.totalCPU; cpu > 0 {
		d.gcShare = (h.gcCPU - h0.gcCPU) / cpu
	}
	d.liveMBEnd = liveHeapMB()
	return d
}

// liveHeapMB is the live heap after a forced GC.
func liveHeapMB() float64 {
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	return float64(live[0].Value.Uint64()) / (1 << 20)
}
