package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"roadrunner/internal/serve"
	"roadrunner/internal/trace"
	"roadrunner/internal/units"
)

// The serve rung of every traced run: an open loop of POST /v1/replay
// submissions on a fixed schedule against serve.New with default
// options behind a loopback listener. Each new submission carries the
// canonical trace inline and places its ranks explicitly on a seeded
// random permutation of the first 360 nodes; a seeded quarter of the
// submissions resubmit an earlier body byte for byte, which serve
// answers from the existing job. At 8 req/s no backlog grows.
const (
	serveRate        = 8.0 // submissions per second
	serveSubmissions = 64  // 8 s of schedule
	serveResubmit    = 0.25
	serveNodes       = 360
	serveProcs       = 2 // GOMAXPROCS while the rung runs
	servePoll        = 2 * time.Millisecond
	serveConns       = 2
	serveTimeout     = 60 * time.Second // one request's limit before it counts as failed
)

// servePlan is the run's submission schedule.
type servePlan struct {
	places [][]endpoint // distinct placements, in first-submission order
	of     []int        // submission i → index into places
	resub  []bool       // submission i repeats an earlier body
}

// planServe picks exactly a serveResubmit share of the submissions
// after the first, each repeating a seeded earlier one.
func planServe(seed int64, n, ranks int) servePlan {
	var p servePlan
	rng := rand.New(rand.NewSource(mix(seed, 1<<30)))
	resub := make(map[int]bool)
	if n > 1 {
		for _, k := range rng.Perm(n - 1)[:int(serveResubmit*float64(n))] {
			resub[k+1] = true
		}
	}
	for i := 0; i < n; i++ {
		if resub[i] {
			p.of = append(p.of, p.of[rng.Intn(i)])
			p.resub = append(p.resub, true)
			continue
		}
		perm := rand.New(rand.NewSource(mix(seed, i))).Perm(serveNodes)
		p.places = append(p.places, nodesAsPlaces(perm[:ranks]))
		p.of = append(p.of, len(p.places)-1)
		p.resub = append(p.resub, false)
	}
	return p
}

// replayBody is a POST /v1/replay body: the escaped trace is shared by
// every body, so building one costs only its placement list.
type replayBody struct {
	head, trace, tail []byte
}

func newReplayBody(escTrace []byte, pl []endpoint) replayBody {
	var t bytes.Buffer
	t.WriteString(`,"placement":{"kind":"explicit","places":[`)
	for r, e := range pl {
		if r > 0 {
			t.WriteByte(',')
		}
		fmt.Fprintf(&t, `{"cu":%d,"node":%d,"core":%d}`, e.Node.CU, e.Node.Node, e.Core)
	}
	t.WriteString(`]},"skip_compute":true}`)
	return replayBody{head: []byte(`{"trace":`), trace: escTrace, tail: t.Bytes()}
}

func (b replayBody) reader() (io.Reader, int64) {
	return io.MultiReader(bytes.NewReader(b.head), bytes.NewReader(b.trace), bytes.NewReader(b.tail)),
		int64(len(b.head) + len(b.trace) + len(b.tail))
}

// served is a running server with its loopback client.
type served struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	base string
	hc   *http.Client
}

func startServer() (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: serve.New(serve.Options{}), done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}}
	return s, nil
}

// close stops the listener, waits for the serving goroutine and the
// open connections, then drains and stops the job workers.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.hc.CloseIdleConnections()
	s.srv.Close()
	return err
}

// reqRecord is what one submission observed.
type reqRecord struct {
	lat, submit      time.Duration
	polls            int
	coalesced        bool // answered 200: an existing job
	queue, run       time.Duration
	result           string // digest of the result bytes
	makespan         units.Time
	events, messages int64
}

// get issues a GET and returns the body of a 200 response.
func (s *served) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// submit runs one submission to its last result byte: POST, poll the
// job until it settles, fetch the result. Latency runs from due.
func (s *served) submit(due time.Time, body replayBody) (reqRecord, error) {
	var rec reqRecord
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()

	t0 := time.Now()
	rd, n := body.reader()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/replay", rd)
	if err != nil {
		return rec, err
	}
	req.ContentLength = n
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.hc.Do(req)
	if err != nil {
		return rec, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return rec, err
	}
	rec.submit = time.Since(t0)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return rec, fmt.Errorf("POST /v1/replay: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	rec.coalesced = resp.StatusCode == http.StatusOK
	var sub struct {
		JobID     string `json:"job_id"`
		StatusURL string `json:"status_url"`
		ResultURL string `json:"result_url"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		return rec, fmt.Errorf("POST /v1/replay answer: %w", err)
	}

	var st struct {
		State     string `json:"state"`
		Error     string `json:"error"`
		Submitted string `json:"submitted_at"`
		Started   string `json:"started_at"`
		Finished  string `json:"finished_at"`
	}
	for {
		b, err := s.get(ctx, sub.StatusURL)
		if err != nil {
			return rec, err
		}
		rec.polls++
		if err := json.Unmarshal(b, &st); err != nil {
			return rec, fmt.Errorf("job status: %w", err)
		}
		if st.State == string(serve.StateFailed) {
			return rec, fmt.Errorf("job %s failed: %s", sub.JobID, st.Error)
		}
		if st.State == string(serve.StateDone) {
			break
		}
		time.Sleep(servePoll)
	}
	times := make([]time.Time, 3)
	for i, v := range []string{st.Submitted, st.Started, st.Finished} {
		if times[i], err = time.Parse(time.RFC3339Nano, v); err != nil {
			return rec, fmt.Errorf("job %s timestamps: %w", sub.JobID, err)
		}
	}
	rec.queue, rec.run = times[1].Sub(times[0]), times[2].Sub(times[1])

	out, err := s.get(ctx, sub.ResultURL)
	if err != nil {
		return rec, err
	}
	rec.lat = time.Since(due)
	rec.result = digest(out)
	return rec, parseReplayResult(out, &rec)
}

// parseReplayResult reads the replay line of a result artifact.
func parseReplayResult(b []byte, rec *reqRecord) error {
	for _, l := range bytes.Split(b, []byte("\n")) {
		var line struct {
			Kind     string `json:"kind"`
			Makespan int64  `json:"makespan_ps"`
			Messages int64  `json:"messages"`
			Events   int64  `json:"events"`
		}
		if len(l) == 0 {
			continue
		}
		if err := json.Unmarshal(l, &line); err != nil {
			return fmt.Errorf("result line: %w", err)
		}
		if line.Kind == "replay" {
			rec.makespan, rec.messages, rec.events = units.Time(line.Makespan), line.Messages, line.Events
			return nil
		}
	}
	return errors.New("result has no replay line")
}

// serveRung runs serveSubmissions submissions on the schedule above
// against a fresh server, at GOMAXPROCS serveProcs, after one discarded
// warm-up submission. Every answer is checked as the ops of a workload
// are, and the submissions count as ops of the run: attempted, and
// failed when a check fails. The live heap is read (after a forced GC)
// before the server starts and again once every job has finished, with
// the server still open: the difference per finished job is what the
// server keeps of a job.
func serveRung(c *canonical, seed int64, res *runResult, out map[string]float64) error {
	prev := runtime.GOMAXPROCS(serveProcs)
	defer runtime.GOMAXPROCS(prev)
	esc, err := json.Marshal(string(c.jsonl))
	if err != nil {
		return err
	}
	plan := planServe(seed, serveSubmissions, c.tr.Meta.Ranks)
	bodies := make([]replayBody, len(plan.places))
	for j, pl := range plan.places {
		bodies[j] = newReplayBody(esc, pl)
	}

	live0 := liveHeapMB()
	s, err := startServer()
	if err != nil {
		return err
	}
	warm := nodesAsPlaces(rand.New(rand.NewSource(mix(seed, -1))).Perm(serveNodes)[:c.tr.Meta.Ranks])
	if _, err := s.submit(time.Now(), newReplayBody(esc, warm)); err != nil {
		s.close()
		return fmt.Errorf("serve rung warm-up: %w", err)
	}

	n := serveSubmissions
	recs := make([]reqRecord, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	var maxLate time.Duration
	start := time.Now().Add(20 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		maxLate = max(maxLate, time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i], errs[i] = s.submit(due, bodies[plan.of[i]])
		}()
	}
	wg.Wait()
	live1 := liveHeapMB()
	if err := s.close(); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}

	// Checks, outside every timed interval: each distinct placement's
	// served makespan against a local Evaluator, resubmissions against
	// the first answer.
	ev, err := trace.NewEvaluator(c.tr, c.cfg)
	if err != nil {
		return err
	}
	defer ev.Close()
	firstOf := make([]int, len(plan.places))
	for j := range firstOf {
		firstOf[j] = -1
	}
	res.attempted += n
	failed0 := res.failed
	var coalesced, polls int
	var lats, submits, queues, runs []time.Duration
	for i := 0; i < n; i++ {
		rec, j := recs[i], plan.of[i]
		err := errs[i]
		if err == nil && firstOf[j] >= 0 && rec.result != recs[firstOf[j]].result {
			err = fmt.Errorf("resubmission answered %s, first answer was %s", rec.result, recs[firstOf[j]].result)
		}
		if err == nil && firstOf[j] < 0 {
			err = checkServed(ev, plan.places[j], rec)
		}
		if err != nil {
			res.fail(fmt.Errorf("serve rung request %d: %w", i, err))
			continue
		}
		if firstOf[j] < 0 {
			firstOf[j] = i
		}
		lats = append(lats, rec.lat)
		submits = append(submits, rec.submit)
		polls += rec.polls
		if rec.coalesced {
			coalesced++
		} else {
			queues = append(queues, rec.queue)
			runs = append(runs, rec.run)
		}
	}
	planned := 0
	for _, r := range plan.resub {
		if r {
			planned++
		}
	}
	if res.failed == failed0 && coalesced != planned {
		res.fail(fmt.Errorf("serve rung: %d submissions coalesced, %d were resubmissions", coalesced, planned))
	}

	out["serve.latency_ms"] = ms(median(lats))
	out["serve.submit_ms"] = ms(median(submits))
	out["serve.queue_ms"] = ms(median(queues))
	out["serve.run_ms"] = ms(median(runs))
	out["serve.polls_per_op"] = float64(polls) / float64(max(1, len(submits)))
	out["serve.coalesced_share"] = float64(coalesced) / float64(n)
	out["serve.generator_late_ms"] = ms(maxLate)
	out["serve.retained_mb_per_job"] = (live1 - live0) / float64(len(plan.places)+1)
	return nil
}

// checkServed replays a served placement on a local Evaluator: the
// served makespan, message and event counts must match.
func checkServed(ev *trace.Evaluator, places []endpoint, rec reqRecord) error {
	r, err := ev.Evaluate(places)
	switch {
	case err != nil:
		return err
	case r.Time != rec.makespan:
		return fmt.Errorf("served makespan %v, Evaluate gives %v", rec.makespan, r.Time)
	case r.Messages != rec.messages || r.EngineStats.Dispatched != rec.events:
		return fmt.Errorf("served %d messages/%d events, Evaluate gives %d/%d",
			rec.messages, rec.events, r.Messages, r.EngineStats.Dispatched)
	}
	return nil
}
