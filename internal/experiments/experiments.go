// Package experiments maps every table and figure of the paper's
// evaluation (plus the headline LINPACK/Green500 numbers and a set of
// design-choice ablations) to a runnable experiment that regenerates it
// from the models and checks the result against the paper.
package experiments

import (
	"fmt"
	"sort"

	"roadrunner/internal/report"
)

// Artifact is one experiment's output: rendered tables and figures plus
// the paper-vs-measured checks.
type Artifact struct {
	ID       string
	Title    string
	PaperRef string
	Tables   []*report.Table
	Figures  []*report.Figure
	Checks   report.Checks
	// Host holds checks on the machine the artifact was computed on —
	// wall-clock speed floors — rather than on the calibrated model. Two
	// runs of the same inputs may disagree on them, so the artifact
	// cache never stores them, byte comparisons of artifacts read Body,
	// which leaves them out, and the result stream's check counts
	// exclude them.
	Host report.Checks `json:"-"`
}

// Body renders the artifact's deterministic content — tables, figures
// and checks — a pure function of the calibrated inputs.
func (a *Artifact) Body() string {
	s := fmt.Sprintf("### %s — %s (%s)\n\n", a.ID, a.Title, a.PaperRef)
	for _, t := range a.Tables {
		s += t.String() + "\n"
	}
	for _, f := range a.Figures {
		s += f.String() + "\n"
	}
	s += a.Checks.String()
	return s
}

// HostSection renders the host checks under a heading, or nothing when
// the artifact has none.
func (a *Artifact) HostSection() string {
	if len(a.Host.Items) == 0 {
		return ""
	}
	return "host checks (wall clock, not cached):\n" + a.Host.String()
}

// String renders the artifact for terminal output: the body, then the
// host section.
func (a *Artifact) String() string {
	return a.Body() + a.HostSection()
}

// Experiment is a registered, runnable reproduction of one artifact.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	// Description says what the experiment sweeps and what its checks
	// pin, in one sentence; rrexp -list prints it under each entry.
	Description string
	// Expensive marks experiments whose single run dominates the whole
	// suite (the congestion sweep today; its full-machine alltoall alone
	// is minutes of event loop). The
	// -short test skip and the experiment docs consult this one flag
	// instead of keeping their own ID lists.
	Expensive bool
	Run       func() *Artifact
}

var registry []Experiment

func register(id, title, ref, desc string, run func() *Artifact) {
	if desc == "" {
		panic("experiments: " + id + " registered without a description")
	}
	registry = append(registry, Experiment{ID: id, Title: title, PaperRef: ref, Description: desc, Run: run})
}

// registerExpensive registers an experiment whose single run dominates
// the whole rest of the suite.
func registerExpensive(id, title, ref, desc string, run func() *Artifact) {
	register(id, title, ref, desc, run)
	registry[len(registry)-1].Expensive = true
}

// newArtifact starts an artifact for a registered experiment.
func newArtifact(id, title, ref string) *Artifact {
	return &Artifact{ID: id, Title: title, PaperRef: ref}
}

// All returns every experiment in registration (paper) order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
