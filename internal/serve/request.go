package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"roadrunner/internal/collectives"
	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/placement"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

var errClosed = errors.New("serve: server is closed")

// apiError is a structured client-visible failure: the HTTP status, a
// stable machine-readable code and a human-readable message. docs/api.md
// lists every code.
type apiError struct {
	Status  int
	Code    string
	Message string
}

func badRequest(format string, args ...any) *apiError {
	return &apiError{Status: 400, Code: "invalid_request", Message: fmt.Sprintf(format, args...)}
}

// endpointSpec is one rank's location in an explicit placement.
type endpointSpec struct {
	CU   int `json:"cu"`
	Node int `json:"node"`
	Core int `json:"core"`
}

// placementSpec selects a rank→node mapping: one of the named
// generators (block, strided, packed) or an explicit per-rank list.
// The zero value means block on core 1, the facade's default.
type placementSpec struct {
	Kind    string         `json:"kind,omitempty"`
	Stride  int            `json:"stride,omitempty"`
	PerNode int            `json:"per_node,omitempty"`
	Core    *int           `json:"core,omitempty"`
	Places  []endpointSpec `json:"places,omitempty"`
}

// endpoints resolves the spec for a ranks-wide trace on fab.
func (p *placementSpec) endpoints(fab *fabric.System, ranks int) ([]transport.Endpoint, *apiError) {
	core := 1
	if p.Core != nil {
		core = *p.Core
	}
	if err := transport.CheckCore(core); err != nil {
		return nil, badRequest("placement %v", err)
	}
	if p.Kind == "explicit" {
		if len(p.Places) != ranks {
			return nil, badRequest("explicit placement lists %d ranks, trace has %d", len(p.Places), ranks)
		}
		out := make([]transport.Endpoint, ranks)
		for i, e := range p.Places {
			out[i] = transport.Endpoint{Node: fabric.NodeID{CU: e.CU, Node: e.Node}, Core: e.Core}
		}
		if err := transport.CheckPlaces(fab, out); err != nil {
			return nil, badRequest("explicit placement: %v", err)
		}
		return out, nil
	}
	kind, stride, perNode := p.Kind, p.Stride, p.PerNode
	if kind == "" {
		kind = "block"
	}
	if stride == 0 {
		stride = transport.DefaultStride
	}
	if perNode == 0 {
		perNode = transport.DefaultPerNode
	}
	places, err := transport.NamedPlacement(kind, fab, ranks, stride, perNode, core)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return places, nil
}

// policyFor maps the wire congestion field to a transport policy; an
// absent field means on.
func policyFor(congestion string) (transport.Policy, *apiError) {
	if congestion == "" {
		congestion = "on"
	}
	pol, err := transport.ParsePolicy(congestion)
	if err != nil {
		return pol, badRequest("%v", err)
	}
	return pol, nil
}

// decodeStrict unmarshals JSON rejecting unknown fields, so schema
// typos fail loudly instead of silently taking defaults.
func decodeStrict(data []byte, v any) *apiError {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &apiError{Status: 400, Code: "invalid_json", Message: err.Error()}
	}
	// Trailing garbage after the object is a malformed request too.
	if dec.More() {
		return &apiError{Status: 400, Code: "invalid_json", Message: "trailing data after request object"}
	}
	return nil
}

// parseTrace decodes and validates an inline JSONL trace, returning it
// with its content digest.
func parseTrace(text string) (*trace.Trace, string, *apiError) {
	if text == "" {
		return nil, "", badRequest("missing required field \"trace\" (inline JSONL)")
	}
	tr, err := trace.Decode(strings.NewReader(text))
	if err != nil {
		return nil, "", &apiError{Status: 400, Code: "invalid_trace", Message: err.Error()}
	}
	sum := sha256.Sum256([]byte(text))
	return tr, hex.EncodeToString(sum[:]), nil
}

// replayRequest is the POST /v1/replay body.
type replayRequest struct {
	Trace        string        `json:"trace"`
	Placement    placementSpec `json:"placement"`
	Congestion   string        `json:"congestion,omitempty"`
	SkipCompute  bool          `json:"skip_compute,omitempty"`
	ComputeScale float64       `json:"compute_scale,omitempty"`
	Observe      string        `json:"observe,omitempty"`
}

// parseReplay validates a replay submission and builds its work
// function: check a warm evaluator out of the (trace, config) pool,
// evaluate the placement, render the JSONL artifact.
func (s *Server) parseReplay(body []byte) (func() ([]byte, error), *apiError) {
	var req replayRequest
	if aerr := decodeStrict(body, &req); aerr != nil {
		return nil, aerr
	}
	tr, digest, aerr := parseTrace(req.Trace)
	if aerr != nil {
		return nil, aerr
	}
	if math.IsNaN(req.ComputeScale) || math.IsInf(req.ComputeScale, 0) || req.ComputeScale < 0 {
		return nil, badRequest("compute_scale %g is not a finite non-negative number", req.ComputeScale)
	}
	var observe trace.Observe
	switch req.Observe {
	case "", "none":
	case "sends":
		observe = trace.ObserveSends
	case "census":
		observe = trace.ObserveCensus
	case "all":
		observe = trace.ObserveAll
	default:
		return nil, badRequest("observe must be \"none\", \"sends\", \"census\" or \"all\", got %q", req.Observe)
	}
	policy, aerr := policyFor(req.Congestion)
	if aerr != nil {
		return nil, aerr
	}
	places, aerr := req.Placement.endpoints(s.fab, tr.Meta.Ranks)
	if aerr != nil {
		return nil, aerr
	}
	cfg := trace.ReplayConfig{
		Fabric:       s.fab,
		Profile:      ib.OpenMPI(),
		Policy:       policy,
		ComputeScale: req.ComputeScale,
		SkipCompute:  req.SkipCompute,
		Observe:      observe,
	}
	// The pool key is everything the evaluator fixes for its lifetime:
	// the trace bytes and the config minus the placement.
	poolKey := fmt.Sprintf("%s|cong=%v|skip=%v|scale=%g|obs=%d",
		digest, policy.Enabled, cfg.SkipCompute, cfg.ComputeScale, observe)
	return func() ([]byte, error) {
		ev, pool, err := s.checkout(poolKey, func() (*trace.EvaluatorPool, error) {
			// A pool keeps one idle evaluator per request worker.
			return trace.NewEvaluatorPool(tr, cfg, s.opts.Workers)
		})
		if err != nil {
			return nil, err
		}
		defer pool.Put(ev)
		res, err := ev.Evaluate(places)
		if err != nil {
			return nil, err
		}
		return renderReplay(&req, tr, digest, res)
	}, nil
}

// optimizeRequest is the POST /v1/optimize body. Zero search knobs take
// the placement package's defaults; the result is a deterministic
// function of every field (the server's worker count never leaks in).
type optimizeRequest struct {
	Trace          string `json:"trace"`
	Congestion     string `json:"congestion,omitempty"`
	FullSchedule   bool   `json:"full_schedule,omitempty"`
	Seed           int64  `json:"seed,omitempty"`
	Stride         int    `json:"stride,omitempty"`
	PerNode        int    `json:"per_node,omitempty"`
	GreedyRounds   int    `json:"greedy_rounds,omitempty"`
	GreedyBatch    int    `json:"greedy_batch,omitempty"`
	GreedyPatience int    `json:"greedy_patience,omitempty"`
	AnnealRounds   int    `json:"anneal_rounds,omitempty"`
	AnnealBatch    int    `json:"anneal_batch,omitempty"`
}

// parseOptimize validates an optimize submission and builds its work
// function: a full placement search seeded from the block/strided/
// packed baselines.
func (s *Server) parseOptimize(body []byte) (func() ([]byte, error), *apiError) {
	var req optimizeRequest
	if aerr := decodeStrict(body, &req); aerr != nil {
		return nil, aerr
	}
	tr, digest, aerr := parseTrace(req.Trace)
	if aerr != nil {
		return nil, aerr
	}
	if req.GreedyRounds < 0 || req.GreedyBatch < 0 || req.GreedyPatience < 0 ||
		req.AnnealRounds < 0 || req.AnnealBatch < 0 {
		return nil, badRequest("search knobs must be non-negative")
	}
	stride, perNode := req.Stride, req.PerNode
	if stride == 0 {
		stride = transport.DefaultStride
	}
	if perNode == 0 {
		perNode = transport.DefaultPerNode
	}
	starts, err := placement.Baselines(s.fab, tr.Meta.Ranks, stride, perNode)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	policy, aerr := policyFor(req.Congestion)
	if aerr != nil {
		return nil, aerr
	}
	// An optimize job searches on one worker: it saturates one request
	// worker, keeping the shards independent, and placement.Optimize's
	// result does not depend on the count.
	cfg := placement.Config{
		Trace: tr,
		Replay: trace.ReplayConfig{
			Fabric:      s.fab,
			Profile:     ib.OpenMPI(),
			Policy:      policy,
			SkipCompute: !req.FullSchedule,
		},
		Starts:         starts,
		Seed:           req.Seed,
		Workers:        1,
		GreedyRounds:   req.GreedyRounds,
		GreedyBatch:    req.GreedyBatch,
		GreedyPatience: req.GreedyPatience,
		AnnealRounds:   req.AnnealRounds,
		AnnealBatch:    req.AnnealBatch,
	}
	return func() ([]byte, error) {
		res, err := placement.Optimize(cfg)
		if err != nil {
			return nil, err
		}
		return renderOptimize(&req, tr, digest, res)
	}, nil
}

// collectiveRequest is the POST /v1/collective body.
type collectiveRequest struct {
	Op         string `json:"op"`
	Nodes      int    `json:"nodes"`
	SizeBytes  int64  `json:"size_bytes"`
	Congestion string `json:"congestion,omitempty"`
}

// parseCollective validates a collective submission and builds its work
// function: one collective run over the smallest fabric that holds it.
func (s *Server) parseCollective(body []byte) (func() ([]byte, error), *apiError) {
	var req collectiveRequest
	if aerr := decodeStrict(body, &req); aerr != nil {
		return nil, aerr
	}
	op := collectives.Op(req.Op)
	known := false
	for _, o := range collectives.Ops() {
		if o == op {
			known = true
			break
		}
	}
	if !known {
		return nil, badRequest("unknown op %q (have %v)", req.Op, collectives.Ops())
	}
	if req.SizeBytes < 0 {
		return nil, badRequest("size_bytes %d is negative", req.SizeBytes)
	}
	policy, aerr := policyFor(req.Congestion)
	if aerr != nil {
		return nil, aerr
	}
	// Validate the communicator now so a bad node count is a 400 at
	// submission, not a failed job.
	if _, err := collectives.DefaultConfig(req.Nodes); err != nil {
		return nil, badRequest("%v", err)
	}
	return func() ([]byte, error) {
		cfg, err := collectives.DefaultConfig(req.Nodes)
		if err != nil {
			return nil, err
		}
		cfg.Congestion = policy
		res, err := collectives.Run(cfg, op, units.Size(req.SizeBytes))
		if err != nil {
			return nil, err
		}
		return renderCollective(&req, res)
	}, nil
}
