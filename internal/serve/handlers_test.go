package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"roadrunner/internal/trace"
	"roadrunner/internal/units"
)

// ringTraceJSONL builds a small valid ring-exchange trace (compute,
// send-to-next, recv-from-prev per rank) and returns its JSONL text.
func ringTraceJSONL(t testing.TB, ranks int, size units.Size) string {
	t.Helper()
	tr := &trace.Trace{Meta: trace.Meta{Name: fmt.Sprintf("ring-%d", ranks), App: "serve-test", Ranks: ranks}}
	for r := 0; r < ranks; r++ {
		tr.Records = append(tr.Records,
			trace.Record{Rank: r, Seq: 0, Kind: trace.KindCompute, Peer: trace.NoPeer,
				Duration: 5 * units.Microsecond, Dep: trace.NoDep},
			trace.Record{Rank: r, Seq: 1, Kind: trace.KindSend, Peer: (r + 1) % ranks,
				Size: size, Dep: trace.NoDep},
			trace.Record{Rank: r, Seq: 2, Kind: trace.KindRecv, Peer: (r + ranks - 1) % ranks,
				Size: size, Dep: 1},
		)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("test trace invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.String()
}

// wideTraceJSONL builds a tiny valid trace whose header claims ranks
// rank streams (the format allows record-less ranks), so oversized-
// fabric validation can be exercised without a megabyte fixture.
func wideTraceJSONL(t testing.TB, ranks int) string {
	t.Helper()
	tr := &trace.Trace{Meta: trace.Meta{Name: "wide", App: "serve-test", Ranks: ranks}}
	tr.Records = append(tr.Records,
		trace.Record{Rank: 0, Seq: 0, Kind: trace.KindCompute, Peer: trace.NoPeer,
			Duration: units.Microsecond, Dep: trace.NoDep})
	if err := tr.Validate(); err != nil {
		t.Fatalf("wide trace invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.String()
}

// do drives one request through the server's handler.
func do(t testing.TB, s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// submitWait submits a body and polls the job to a terminal state,
// returning the result bytes of a done job.
func submitWait(t testing.TB, s *Server, path string, body []byte) []byte {
	t.Helper()
	rec := do(t, s, http.MethodPost, path, body)
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	var sub submitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := do(t, s, http.MethodGet, "/v1/jobs/"+sub.JobID, nil)
		if st.Code != http.StatusOK {
			t.Fatalf("GET job %s: status %d: %s", sub.JobID, st.Code, st.Body.String())
		}
		var js jobStatus
		if err := json.Unmarshal(st.Body.Bytes(), &js); err != nil {
			t.Fatalf("job status: %v", err)
		}
		switch js.State {
		case StateDone:
			res := do(t, s, http.MethodGet, "/v1/jobs/"+sub.JobID+"/result", nil)
			if res.Code != http.StatusOK {
				t.Fatalf("GET result %s: status %d: %s", sub.JobID, res.Code, res.Body.String())
			}
			return res.Body.Bytes()
		case StateFailed:
			t.Fatalf("job %s failed: %s", sub.JobID, js.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", sub.JobID, js.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeMalformedSubmissions is the 4xx contract: every malformed
// submission is rejected synchronously with a structured error (code +
// message), the documented status, and no job is ever created for it.
func TestServeMalformedSubmissions(t *testing.T) {
	tr := ringTraceJSONL(t, 4, 64*units.KB)
	s := New(Options{Workers: 1, MaxBodyBytes: 256 * 1024})
	defer s.Close()

	req := func(fields string) []byte {
		return []byte(`{"trace":` + jsonString(tr) + `,` + fields + `}`)
	}
	// Valid trace format-wise, but wider than the 3060-node fabric.
	wide := wideTraceJSONL(t, 4000)
	wideReq := func(fields string) []byte {
		return []byte(`{"trace":` + jsonString(wide) + `,` + fields + `}`)
	}
	cases := []struct {
		name   string
		path   string
		body   []byte
		status int
		code   string
	}{
		{"not json", "/v1/replay", []byte("not json at all"), 400, "invalid_json"},
		{"unknown field", "/v1/replay", req(`"plcaement":{}`), 400, "invalid_json"},
		{"trailing garbage", "/v1/replay", append(req(`"skip_compute":true`), []byte(" {}")...), 400, "invalid_json"},
		{"missing trace", "/v1/replay", []byte(`{"skip_compute":true}`), 400, "invalid_request"},
		{"corrupt trace", "/v1/replay", []byte(`{"trace":"not a trace header"}`), 400, "invalid_trace"},
		{"bad placement length", "/v1/replay",
			req(`"placement":{"kind":"explicit","places":[{"cu":0,"node":0,"core":1}]}`), 400, "invalid_request"},
		{"placement off machine", "/v1/replay",
			req(`"placement":{"kind":"explicit","places":[{"cu":99,"node":0,"core":1},{"cu":0,"node":1,"core":1},{"cu":0,"node":2,"core":1},{"cu":0,"node":3,"core":1}]}`),
			400, "invalid_request"},
		{"bad placement core", "/v1/replay", req(`"placement":{"kind":"block","core":7}`), 400, "invalid_request"},
		{"oversized block", "/v1/replay", wideReq(`"placement":{"kind":"block"}`), 400, "invalid_request"},
		{"oversized strided", "/v1/replay", wideReq(`"placement":{"kind":"strided"}`), 400, "invalid_request"},
		{"oversized packed", "/v1/replay", wideReq(`"placement":{"kind":"packed","per_node":1}`), 400, "invalid_request"},
		{"oversized default placement", "/v1/replay", wideReq(`"skip_compute":true`), 400, "invalid_request"},
		{"explicit cu overflows int", "/v1/replay",
			req(`"placement":{"kind":"explicit","places":[{"cu":60000000000000000,"node":0,"core":1},{"cu":0,"node":1,"core":1},{"cu":0,"node":2,"core":1},{"cu":0,"node":3,"core":1}]}`),
			400, "invalid_request"},
		{"oversized optimize trace", "/v1/optimize", wideReq(`"seed":1`), 400, "invalid_request"},
		{"unknown placement kind", "/v1/replay", req(`"placement":{"kind":"diagonal"}`), 400, "invalid_request"},
		{"NaN compute scale", "/v1/replay", req(`"compute_scale":NaN`), 400, "invalid_json"},
		{"infinite compute scale", "/v1/replay", req(`"compute_scale":1e999`), 400, "invalid_json"},
		{"negative compute scale", "/v1/replay", req(`"compute_scale":-1`), 400, "invalid_request"},
		{"bad observe", "/v1/replay", req(`"observe":"everything"`), 400, "invalid_request"},
		{"bad congestion", "/v1/replay", req(`"congestion":"maybe"`), 400, "invalid_request"},
		{"negative knob", "/v1/optimize", req(`"greedy_rounds":-1`), 400, "invalid_request"},
		{"optimize bad stride", "/v1/optimize", req(`"stride":-5`), 400, "invalid_request"},
		{"optimize per_node", "/v1/optimize", req(`"per_node":9`), 400, "invalid_request"},
		{"unknown op", "/v1/collective", []byte(`{"op":"alltoall-magic","nodes":8,"size_bytes":64}`), 400, "invalid_request"},
		{"zero nodes", "/v1/collective", []byte(`{"op":"allgather-ring","nodes":0,"size_bytes":64}`), 400, "invalid_request"},
		{"machine overflow", "/v1/collective", []byte(`{"op":"allgather-ring","nodes":99999,"size_bytes":64}`), 400, "invalid_request"},
		{"negative payload", "/v1/collective", []byte(`{"op":"allgather-ring","nodes":8,"size_bytes":-1}`), 400, "invalid_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, http.MethodPost, tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body.String())
			}
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("error body is not structured JSON: %v: %s", err, rec.Body.String())
			}
			if eb.Error.Code != tc.code {
				t.Errorf("error code %q, want %q (message %q)", eb.Error.Code, tc.code, eb.Error.Message)
			}
			if eb.Error.Message == "" {
				t.Error("error message is empty")
			}
		})
	}

	// The registry holds no jobs: nothing malformed was enqueued.
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 0 {
		t.Errorf("%d jobs registered after malformed submissions, want 0", n)
	}
}

// TestServeOversizedTrace pins the body bound: a trace beyond
// MaxBodyBytes is a structured 413, not a 500 or a torn read.
func TestServeOversizedTrace(t *testing.T) {
	s := New(Options{Workers: 1, MaxBodyBytes: 16 * 1024})
	defer s.Close()
	tr := ringTraceJSONL(t, 64, 1*units.KB) // ~192 records, well past 16 KB as JSON
	body := []byte(`{"trace":` + jsonString(tr) + `}`)
	if len(body) <= 16*1024 {
		t.Fatalf("fixture too small to exercise the bound: %d bytes", len(body))
	}
	rec := do(t, s, http.MethodPost, "/v1/replay", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body.String())
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("413 body is not structured: %v", err)
	}
	if eb.Error.Code != "body_too_large" {
		t.Errorf("error code %q, want body_too_large", eb.Error.Code)
	}
}

// TestServeJobLifecycle drives one replay job through the documented
// state machine and pins the result endpoints' error semantics.
func TestServeJobLifecycle(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()

	if rec := do(t, s, http.MethodGet, "/v1/jobs/nope", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/v1/jobs/nope/result", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job result: %d, want 404", rec.Code)
	}

	// A job parked in the registry but not finished answers 409 on its
	// result endpoint.
	parked := newJob("rp-parked", "replay", "k", "", nil)
	if _, aerr := s.register(parked); aerr != nil {
		t.Fatalf("register: %v", aerr)
	}
	if rec := do(t, s, http.MethodGet, "/v1/jobs/rp-parked/result", nil); rec.Code != http.StatusConflict {
		t.Errorf("queued job result: %d, want 409", rec.Code)
	}

	tr := ringTraceJSONL(t, 4, 64*units.KB)
	body := []byte(`{"trace":` + jsonString(tr) + `,"observe":"census"}`)
	data := submitWait(t, s, "/v1/replay", body)
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("result has %d lines, want >= 3:\n%s", len(lines), data)
	}
	var head headerLine
	if err := json.Unmarshal(lines[0], &head); err != nil {
		t.Fatalf("header line: %v", err)
	}
	if head.Format != ResultFormat || head.Version != ResultVersion || head.Job != "replay" {
		t.Errorf("header %+v", head)
	}
	var rep struct {
		Kind       string `json:"kind"`
		MakespanPs int64  `json:"makespan_ps"`
	}
	found := false
	for _, l := range lines {
		if json.Unmarshal(l, &rep) == nil && rep.Kind == "replay" {
			found = true
			if rep.MakespanPs <= 0 {
				t.Errorf("non-positive makespan %d", rep.MakespanPs)
			}
		}
	}
	if !found {
		t.Fatalf("no replay line in result:\n%s", data)
	}

	// Resubmitting the identical body returns the same finished job.
	rec := do(t, s, http.MethodPost, "/v1/replay", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("resubmit: status %d, want 200", rec.Code)
	}
	var sub submitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatalf("resubmit response: %v", err)
	}
	if sub.State != StateDone {
		t.Errorf("resubmitted job state %q, want done", sub.State)
	}

	// The congested replay above reports its census; with congestion off
	// the fabric keeps no link state, so an observe "all" replay carries
	// its send lines but no census or link line.
	if !bytes.Contains(data, []byte(`"kind":"census"`)) {
		t.Errorf("congested census replay has no census line:\n%s", data)
	}
	off := submitWait(t, s, "/v1/replay",
		[]byte(`{"trace":`+jsonString(tr)+`,"observe":"all","congestion":"off"}`))
	if !bytes.Contains(off, []byte(`"kind":"send"`)) {
		t.Errorf("off replay with observe all has no send line:\n%s", off)
	}
	for _, kind := range []string{`"kind":"census"`, `"kind":"link"`} {
		if bytes.Contains(off, []byte(kind)) {
			t.Errorf("off replay carries a %s line:\n%s", kind, off)
		}
	}
}

// TestServeCollectiveAndOptimize smoke-runs the other two job kinds end
// to end through the HTTP surface.
func TestServeCollectiveAndOptimize(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()

	data := submitWait(t, s, "/v1/collective",
		[]byte(`{"op":"allgather-ring","nodes":8,"size_bytes":4096}`))
	if !bytes.Contains(data, []byte(`"kind":"collective"`)) {
		t.Errorf("collective result missing collective line:\n%s", data)
	}

	tr := ringTraceJSONL(t, 4, 64*units.KB)
	data = submitWait(t, s, "/v1/optimize", []byte(`{"trace":`+jsonString(tr)+
		`,"seed":1,"greedy_rounds":1,"greedy_batch":2,"anneal_rounds":1,"anneal_batch":2}`))
	for _, want := range []string{`"kind":"baseline"`, `"kind":"winner"`, `"kind":"assign"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("optimize result missing %s:\n%s", want, data)
		}
	}

	// The health and stats endpoints answer, and healthz carries the
	// load snapshot a balancer polls for alongside liveness.
	rec := do(t, s, http.MethodGet, "/v1/healthz", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Errorf("healthz: %d %s", rec.Code, rec.Body.String())
	}
	var h healthz
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if h.Workers != s.opts.Workers || h.QueueDepth != s.opts.QueueDepth {
		t.Errorf("healthz workers/queue_depth %d/%d, want %d/%d",
			h.Workers, h.QueueDepth, s.opts.Workers, s.opts.QueueDepth)
	}
	if h.Done < 2 || h.Queued+h.Running+h.Done+h.Failed == 0 {
		t.Errorf("healthz job tally %+v, want >= 2 done", h)
	}
	rec = do(t, s, http.MethodGet, "/v1/stats", nil)
	var st serveStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Done < 2 {
		t.Errorf("stats report %d done jobs, want >= 2", st.Done)
	}
	if st.Done != h.Done || st.Workers != h.Workers {
		t.Errorf("stats/healthz disagree: %+v vs %+v", st, h)
	}
}

// TestServeWorkerPanicFailsJob pins the worker's panic containment: a
// job whose work function panics fails that job with a structured
// error, and the worker survives to run the next submission.
func TestServeWorkerPanicFailsJob(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()

	job := newJob("rp-panic", "replay", "k", "", func() ([]byte, error) { panic("engine blew up") })
	if _, aerr := s.register(job); aerr != nil {
		t.Fatalf("register: %v", aerr)
	}
	s.queue <- job
	deadline := time.Now().Add(10 * time.Second)
	for !job.settled() {
		if time.Now().After(deadline) {
			t.Fatal("panicking job never settled")
		}
		time.Sleep(time.Millisecond)
	}
	_, state, errMsg := job.resultBytes()
	if state != StateFailed || !strings.Contains(errMsg, "panicked") {
		t.Fatalf("state %q error %q, want failed with a panic message", state, errMsg)
	}

	// The worker survived: a well-formed replay still completes.
	tr := ringTraceJSONL(t, 4, 64*units.KB)
	submitWait(t, s, "/v1/replay", []byte(`{"trace":`+jsonString(tr)+`}`))
}

// TestServeSubmitDuringClose hammers submit while Close runs: the
// serve.Server API itself (independent of rrserve's shutdown ordering)
// must never send on the closed queue — every racing submission either
// enqueues cleanly or gets a structured shutting_down error.
func TestServeSubmitDuringClose(t *testing.T) {
	parse := func() (func() ([]byte, error), *apiError) {
		return func() ([]byte, error) { return []byte("{}\n"), nil }, nil
	}
	for round := 0; round < 25; round++ {
		s := New(Options{Workers: 1})
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for j := 0; j < 32; j++ {
					body := []byte(fmt.Sprintf(`{"round":%d,"g":%d,"j":%d}`, round, g, j))
					_, _, aerr := s.submit("collective", body, parse)
					if aerr != nil && aerr.Code != "shutting_down" && aerr.Code != "queue_full" {
						t.Errorf("submit: unexpected error %s: %s", aerr.Code, aerr.Message)
					}
				}
			}(g)
		}
		close(start)
		s.Close()
		wg.Wait()
	}
}

// TestServeReplayPoolEviction pins the eviction-race fix: with a
// single-entry pool cache, concurrent replays with distinct pool keys
// evict each other's evaluator pools constantly; a job whose pool is
// closed between cache lookup and checkout must retry on a fresh pool
// instead of failing (and, because jobs are content-addressed, staying
// failed for every identical resubmission).
func TestServeReplayPoolEviction(t *testing.T) {
	s := New(Options{Workers: 4, PoolTraces: 1})
	defer s.Close()
	tr := ringTraceJSONL(t, 4, 16*units.KB)

	var ids []string
	for i := 0; i < 24; i++ {
		// Distinct compute scales give every job its own pool key.
		body := []byte(fmt.Sprintf(`{"trace":%s,"compute_scale":%d.5}`, jsonString(tr), i+1))
		rec := do(t, s, http.MethodPost, "/v1/replay", body)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		var sub submitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
			t.Fatalf("submit response: %v", err)
		}
		ids = append(ids, sub.JobID)
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for {
			st := do(t, s, http.MethodGet, "/v1/jobs/"+id, nil)
			var js jobStatus
			if err := json.Unmarshal(st.Body.Bytes(), &js); err != nil {
				t.Fatalf("job status: %v", err)
			}
			if js.State == StateDone {
				break
			}
			if js.State == StateFailed {
				t.Fatalf("job %s failed: %s", id, js.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %s", id, js.State)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// jsonString marshals s as a JSON string literal.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestSettledJobDropsWork: once a job is done or failed it no longer
// holds its work closure (which keeps the submission's trace alive),
// while a job born finished from the artifact cache keeps its result.
func TestSettledJobDropsWork(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	holdsWork := func(j *Job) bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.run != nil
	}

	body := []byte(`{"trace":` + jsonString(ringTraceJSONL(t, 4, 64*units.KB)) + `}`)
	want := submitWait(t, s, "/v1/replay", body)
	done, ok := s.lookup("re-" + jobKey("replay", body)[:24])
	if !ok {
		t.Fatal("finished replay job not in the registry")
	}
	if holdsWork(done) {
		t.Error("done job still holds its work closure")
	}
	if data, state, _ := done.resultBytes(); state != StateDone || !bytes.Equal(data, want) {
		t.Errorf("done job state %q, result changed", state)
	}

	failed := newJob("rp-fail", "replay", "k", "", func() ([]byte, error) { return nil, fmt.Errorf("no") })
	if _, aerr := s.register(failed); aerr != nil {
		t.Fatalf("register: %v", aerr)
	}
	s.queue <- failed
	deadline := time.Now().Add(10 * time.Second)
	for !failed.settled() {
		if time.Now().After(deadline) {
			t.Fatal("failing job never settled")
		}
		time.Sleep(time.Millisecond)
	}
	if holdsWork(failed) {
		t.Error("failed job still holds its work closure")
	}

	cached := newJob("rp-cached", "replay", "k", "", nil)
	cached.finish([]byte("artifact"), true)
	state, _, isCached, _, _, _ := cached.snapshot()
	if data, _, _ := cached.resultBytes(); state != StateDone || !isCached || string(data) != "artifact" {
		t.Errorf("cache-born job: state %q cached %v result %q", state, isCached, data)
	}
}
