// Package serve is the simulation-as-a-service layer: a long-running
// HTTP/JSON server that exposes the facade's replay, placement-search
// and collective engines as asynchronous jobs.
//
// POST /v1/replay, /v1/optimize and /v1/collective submit work and
// return a job id; GET /v1/jobs/{id} polls the job's state machine
// (queued → running → done | failed) and GET /v1/jobs/{id}/result
// streams the finished job's JSONL report. docs/api.md is the
// normative reference for every endpoint, schema and error code.
//
// The execution model is a sharded worker pool: Options.Workers
// request workers (GOMAXPROCS by default) drain one bounded job queue,
// and each replay checks a warm trace.Evaluator out of a per-
// (trace, config) EvaluatorPool, so serving one more placement of a
// trace the service has already seen costs only the replay's events —
// the same pooling win the placement optimizer's inner loop runs on.
// Identical submissions coalesce: a job's id is derived from the
// request bytes, so resubmitting a queued or running job returns the
// existing job rather than enqueueing a duplicate, and a finished
// job's artifact is served from memory or from the content-addressed
// artifact cache (internal/orchestrator, keyed by the request bytes,
// params.Fingerprint and the build digest) without touching an engine.
//
// Results are deterministic: a job's artifact is a pure function of
// the request bytes and the calibrated model inputs — byte-identical
// whether computed serially or under concurrent load, on a cold or a
// warm evaluator, with any worker count. docs/determinism.md states
// the contract; TestServeResultsDeterministic and TestServeLoad pin it.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"roadrunner/internal/fabric"
	"roadrunner/internal/orchestrator"
	"roadrunner/internal/params"
)

// Options configures a Server. The zero value serves with GOMAXPROCS
// workers, a 1024-deep queue, a 64 MB body bound, eight warm evaluator
// pools and no persistent artifact cache.
type Options struct {
	// Workers is the number of request workers draining the job queue
	// (<= 0 means GOMAXPROCS). Worker count changes wall clock only,
	// never results.
	Workers int
	// QueueDepth bounds the job queue; submissions that find it full
	// are rejected with 503 queue_full (<= 0 means 1024).
	QueueDepth int
	// MaxBodyBytes bounds one request body; larger submissions are
	// rejected with 413 body_too_large (<= 0 means 64 MB).
	MaxBodyBytes int64
	// PoolTraces bounds how many (trace, config) evaluator pools stay
	// warm; the least recently created is closed beyond the bound
	// (<= 0 means 8).
	PoolTraces int
	// Cache, when non-nil, persists finished job artifacts
	// content-addressed by the request bytes, params.Fingerprint and
	// the build digest, so identical requests across service restarts
	// (same binary, same model inputs) are free.
	Cache *orchestrator.Cache
}

// maxJobs bounds the in-memory job registry; once reached, the oldest
// finished jobs are evicted to make room.
const maxJobs = 8192

// withDefaults fills zero option fields.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.PoolTraces <= 0 {
		o.PoolTraces = 8
	}
	return o
}

// Server is one serving instance: the HTTP handler, the job registry,
// the bounded queue, the worker pool and the warm evaluator pools.
// Create with New, serve its Handler, and Close it when done.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	fab   *fabric.System
	pools *poolCache
	queue chan *Job
	wg    sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // job ids in submission order, for eviction
	closed bool
}

// New builds a Server and starts its workers.
func New(opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:  o,
		mux:   http.NewServeMux(),
		fab:   fabric.New(),
		pools: newPoolCache(o.PoolTraces),
		queue: make(chan *Job, o.QueueDepth),
		jobs:  make(map[string]*Job),
	}
	s.mux.HandleFunc("POST /v1/replay", s.handleReplay)
	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("POST /v1/collective", s.handleCollective)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	for w := 0; w < o.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops accepting submissions, drains the queue, waits for
// in-flight jobs and releases every warm evaluator. Close is
// idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
	s.pools.Close()
}

// worker drains the job queue: runs each job's work function and moves
// it through running → done | failed, persisting finished artifacts to
// the cache.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		job.setRunning()
		data, err := runJob(job)
		if err != nil {
			job.fail(err)
			continue
		}
		job.finish(data, false)
		if s.opts.Cache != nil {
			// A failed store never fails the job — the artifact is
			// good; the cache is an accelerator, not a dependency.
			_ = s.opts.Cache.PutRaw(job.cacheKey, data)
		}
	}
}

// runJob runs one job's work function, converting a panic into that
// job's failure: workers are shared across requests, so an engine panic
// on one crafted submission must never take down the process.
func runJob(job *Job) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	return job.run()
}

// jobKey derives a job's content address from the request kind and raw
// body bytes plus the model-input fingerprint: identical submissions
// map to one job, and a model recalibration changes every key.
func jobKey(kind string, body []byte) string {
	h := sha256.New()
	h.Write([]byte("roadrunner-serve-v1\n"))
	h.Write([]byte(kind))
	h.Write([]byte{'\n'})
	h.Write([]byte(params.Fingerprint()))
	h.Write([]byte{'\n'})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// submit registers and enqueues a job for the given request, reusing an
// existing job for identical request bytes and short-circuiting to the
// artifact cache. parse is called only on a genuinely new request; it
// returns the job's work function or a user error (reported as 4xx).
func (s *Server) submit(kind string, body []byte, parse func() (func() ([]byte, error), *apiError)) (*Job, bool, *apiError) {
	key := jobKey(kind, body)
	id := kind[:2] + "-" + key[:24]

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, &apiError{http.StatusServiceUnavailable, "shutting_down", "server is shutting down"}
	}
	if job, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		return job, false, nil
	}
	s.mu.Unlock()

	// Cache probe and request parsing both happen outside the registry
	// lock; a concurrent identical submission is resolved in enqueue.
	if s.opts.Cache != nil {
		if data, ok := s.opts.Cache.GetRaw(s.cacheKey(kind, body)); ok {
			job := newJob(id, kind, key, s.cacheKey(kind, body), nil)
			job.finish(data, true)
			return s.enqueue(job)
		}
	}
	run, aerr := parse()
	if aerr != nil {
		return nil, false, aerr
	}
	return s.enqueue(newJob(id, kind, key, s.cacheKey(kind, body), run))
}

// enqueue registers a job and reserves its queue slot in one locked
// step. Holding the lock across both operations is what makes the
// submission path safe: the closed flag is re-checked at the send (a
// submission racing Close can never hit the closed channel, because
// Close sets the flag under this lock before closing the queue), and a
// job id is never visible to any client unless the job is actually
// queued (a full queue rejects the submission before the registry
// insert, so no client is handed an id that later resolves to 404).
// Jobs born finished (cache hits) skip the queue. Returns the
// registered job and whether this call created it.
func (s *Server) enqueue(job *Job) (*Job, bool, *apiError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, &apiError{http.StatusServiceUnavailable, "shutting_down", "server is shutting down"}
	}
	if existing, ok := s.jobs[job.ID]; ok {
		// A concurrent identical submission won the race; its job is
		// already queued (or done) and ours is never enqueued.
		return existing, false, nil
	}
	if aerr := s.makeRoomLocked(); aerr != nil {
		return nil, false, aerr
	}
	if job.run != nil {
		select {
		case s.queue <- job:
		default:
			return nil, false, &apiError{http.StatusServiceUnavailable, "queue_full",
				fmt.Sprintf("job queue is full (%d deep); retry later", s.opts.QueueDepth)}
		}
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	return job, true, nil
}

// cacheKey is the persistent artifact address for a request (valid only
// when a cache is configured).
func (s *Server) cacheKey(kind string, body []byte) string {
	if s.opts.Cache == nil {
		return ""
	}
	return s.opts.Cache.RawKey("serve/"+kind, body)
}

// register inserts a job, evicting the oldest finished jobs when the
// registry is full. If a concurrent identical submission won the race,
// the existing job is returned instead of the caller's.
func (s *Server) register(job *Job) (*Job, *apiError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.jobs[job.ID]; ok {
		return existing, nil
	}
	if aerr := s.makeRoomLocked(); aerr != nil {
		return nil, aerr
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	return job, nil
}

// makeRoomLocked evicts the oldest finished jobs when the registry is
// full, answering registry_full when nothing is evictable. Caller holds
// s.mu.
func (s *Server) makeRoomLocked() *apiError {
	if len(s.jobs) < maxJobs {
		return nil
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if len(s.jobs) >= maxJobs && s.jobs[id].settled() {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = append([]string(nil), kept...)
	if len(s.jobs) >= maxJobs {
		return &apiError{http.StatusServiceUnavailable, "registry_full",
			fmt.Sprintf("%d jobs in flight; retry later", len(s.jobs))}
	}
	return nil
}

// lookup finds a job by id.
func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	return job, ok
}

// JobState is one job's position in the lifecycle state machine:
// queued → running → done | failed (cached submissions are born done).
type JobState string

// The job states.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Job is one submitted unit of work and its lifecycle.
type Job struct {
	ID       string
	Kind     string
	key      string
	cacheKey string
	run      func() ([]byte, error) // the work; nil once the job settles

	mu        sync.Mutex
	state     JobState
	err       string
	result    []byte
	cached    bool
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// newJob builds a queued job.
func newJob(id, kind, key, cacheKey string, run func() ([]byte, error)) *Job {
	return &Job{ID: id, Kind: kind, key: key, cacheKey: cacheKey, run: run,
		state: StateQueued, submitted: time.Now()}
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish and fail settle the job. Both drop the work closure: it holds
// the submission's decoded trace and inline text, which a registry of
// finished jobs would otherwise keep alive until eviction.
func (j *Job) finish(data []byte, cached bool) {
	j.mu.Lock()
	j.state = StateDone
	j.result = data
	j.cached = cached
	j.finished = time.Now()
	j.run = nil
	j.mu.Unlock()
}

func (j *Job) fail(err error) {
	j.mu.Lock()
	j.state = StateFailed
	j.err = err.Error()
	j.finished = time.Now()
	j.run = nil
	j.mu.Unlock()
}

// settled reports whether the job reached a terminal state.
func (j *Job) settled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateDone || j.state == StateFailed
}

// snapshot returns the job's externally visible status fields.
func (j *Job) snapshot() (state JobState, errMsg string, cached bool, submitted, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.err, j.cached, j.submitted, j.started, j.finished
}

// resultBytes returns the finished artifact.
func (j *Job) resultBytes() ([]byte, JobState, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state, j.err
}
