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
}

// String renders the artifact for terminal output.
func (a *Artifact) String() string {
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
