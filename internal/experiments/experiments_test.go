package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be present.
	want := []string{
		"table1", "table2", "table3", "table4",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"linpack",
		// Collective-scenario experiments (beyond the paper's figures).
		"coll-scaling", "coll-crossover", "coll-cu-exchange", "coll-linpack-panel",
		"coll-saturation",
		// Trace replay: a real application phase over the congested
		// transport.
		"trace-replay",
		// Machine-level job-stream scheduling over the facility
		// simulator.
		"facility-stream",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing", id)
		}
	}
	for _, e := range All() {
		if e.Description == "" {
			t.Errorf("experiment %q has no description for rrexp -list", e.ID)
		}
	}
	if len(All()) < len(want)+3 {
		t.Errorf("expected ablations beyond the paper set; total %d", len(All()))
	}
}

func TestAllExperimentsPass(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && e.Expensive {
				t.Skip("expensive experiment skipped under -short")
			}
			a := e.Run()
			if e.Host != nil {
				a.Host = e.Host()
			}
			if a.ID != e.ID {
				t.Errorf("artifact ID %q != %q", a.ID, e.ID)
			}
			if len(a.Checks.Items) == 0 {
				t.Fatalf("%s: no checks", e.ID)
			}
			for _, f := range a.Checks.Failures() {
				t.Errorf("%s: %s", e.ID, f.String())
			}
			for _, f := range a.Host.Failures() {
				t.Errorf("%s: host: %s", e.ID, f.String())
			}
			if len(a.Tables) == 0 && len(a.Figures) == 0 {
				t.Errorf("%s: no output artifact", e.ID)
			}
		})
	}
}

func TestArtifactRendering(t *testing.T) {
	e, _ := ByID("table1")
	s := e.Run().String()
	for _, want := range []string{"table1", "Table I", "1892", "PASS"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("nope"); ok {
		t.Error("found nonexistent experiment")
	}
}

func TestIDsSorted(t *testing.T) {
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
}

func TestDeterministicReruns(t *testing.T) {
	// Running an experiment twice yields identical rendered output.
	for _, id := range []string{"fig6", "fig13", "table3"} {
		e, _ := ByID(id)
		a := e.Run().String()
		b := e.Run().String()
		if a != b {
			t.Errorf("%s: nondeterministic output", id)
		}
	}
}
