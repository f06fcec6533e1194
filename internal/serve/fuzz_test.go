package serve

import (
	"testing"

	"roadrunner/internal/units"
)

// FuzzParseRequests feeds arbitrary bytes to every submission parser:
// each call must return either a work function or a 4xx apiError, and
// must not panic. The work function is never run; parsing is the
// synchronous half of a submission, the one that sees untrusted bytes
// before any job exists.
func FuzzParseRequests(f *testing.F) {
	tr := jsonString(ringTraceJSONL(f, 4, 64*units.KB))
	for _, body := range []string{
		`{"trace":` + tr + `}`,
		`{"trace":` + tr + `,"observe":"census"}`,
		`{"trace":` + tr + `,"observe":"all","congestion":"off","skip_compute":true}`,
		`{"trace":` + tr + `,"compute_scale":2.5}`,
		`{"trace":` + tr + `,"placement":{"kind":"strided","stride":7,"core":0}}`,
		`{"trace":` + tr + `,"placement":{"kind":"packed","per_node":2}}`,
		`{"trace":` + tr + `,"placement":{"kind":"explicit","places":[{"cu":0,"node":0,"core":1},{"cu":0,"node":1,"core":1},{"cu":0,"node":2,"core":1},{"cu":0,"node":3,"core":1}]}}`,
		`{"trace":` + tr + `,"placement":{"kind":"explicit","places":[{"cu":60000000000000000,"node":0,"core":1},{"cu":0,"node":1,"core":1},{"cu":0,"node":2,"core":1},{"cu":0,"node":3,"core":1}]}}`,
		`{"trace":` + tr + `,"placement":{"kind":"block","core":7}}`,
		`{"trace":` + tr + `,"placement":{"kind":"diagonal"}}`,
		`{"trace":` + tr + `,"seed":3,"greedy_rounds":1,"greedy_batch":4,"anneal_rounds":1,"anneal_batch":4}`,
		`{"trace":` + tr + `,"stride":-5}`,
		`{"trace":` + tr + `,"per_node":9}`,
		`{"trace":` + tr + `,"plcaement":{}}`,
		`{"trace":` + tr + `,"skip_compute":true} {}`,
		`{"skip_compute":true}`,
		`{"trace":"not a trace header"}`,
		`{"op":"allgather-ring","nodes":8,"size_bytes":4096}`,
		`{"op":"alltoall-pairwise","nodes":360,"size_bytes":65536,"congestion":"off"}`,
		`{"op":"allgather-ring","nodes":99999,"size_bytes":64}`,
		`{"op":"allgather-ring","nodes":8,"size_bytes":-1}`,
		`{"op":"alltoall-magic","nodes":8,"size_bytes":64}`,
		"not json at all",
	} {
		f.Add([]byte(body))
	}
	s := New(Options{Workers: 1})
	f.Cleanup(s.Close)
	parsers := []struct {
		name  string
		parse func([]byte) (func() ([]byte, error), *apiError)
	}{
		{"replay", s.parseReplay},
		{"optimize", s.parseOptimize},
		{"collective", s.parseCollective},
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, p := range parsers {
			work, aerr := p.parse(body)
			switch {
			case work == nil && aerr == nil:
				t.Fatalf("%s: neither a work function nor an error", p.name)
			case work != nil && aerr != nil:
				t.Fatalf("%s: both a work function and error %+v", p.name, aerr)
			case aerr != nil && (aerr.Status < 400 || aerr.Status > 499):
				t.Fatalf("%s: error status %d (%s: %s), want 4xx", p.name, aerr.Status, aerr.Code, aerr.Message)
			}
		}
	})
}
