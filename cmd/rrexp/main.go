// Command rrexp runs the paper-reproduction experiments through the
// orchestrator: every table and figure of the evaluation section, the
// LINPACK headline, and the ablations. The suite is embarrassingly
// parallel (one deterministic DES engine per experiment), so -parallel
// spreads it over all CPUs with byte-identical output to a serial run,
// and -cache skips experiments whose artifact for the current model
// inputs is already stored.
//
// Usage:
//
//	rrexp -list
//	rrexp -run fig13
//	rrexp -filter '^coll-' -parallel
//	rrexp -run all -parallel -cache [-csv out/] [-jsonl results.jsonl]
//	rrexp -run all -workers 4 -timeout 30s -quiet
//
// Host checks — wall-clock floors measured on this machine, never cached
// — print on stderr after the experiment's output.
//
// Exit status: 0 all experiments passed their paper-vs-measured and host
// checks, 1 some failed or errored, 2 usage or I/O error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"

	"roadrunner"
	"roadrunner/internal/fabric"
	"roadrunner/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes to stdout and stderr,
// and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rrexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiments (sorted by ID) and exit")
	runIDs := fs.String("run", "all", "comma-separated experiment IDs to run, or 'all'")
	filter := fs.String("filter", "", "regular expression selecting experiment IDs (applies to -run and -list)")
	parallel := fs.Bool("parallel", false, "run the suite on a GOMAXPROCS-sized worker pool")
	workers := fs.Int("workers", 0, "explicit worker-pool size (overrides -parallel; 0 = serial unless -parallel)")
	cache := fs.Bool("cache", false, "reuse/store artifacts in the content-addressed cache")
	cacheDir := fs.String("cache-dir", defaultCacheDir(), "artifact cache location")
	timeout := fs.Duration("timeout", 0, "per-experiment timeout (0 = none)")
	jsonl := fs.String("jsonl", "", "stream one JSON line per result to this file ('-' = stdout)")
	csvDir := fs.String("csv", "", "directory to write CSV artifacts into")
	quiet := fs.Bool("quiet", false, "print only the per-experiment summaries")
	topology := fs.String("topology", "",
		"fabric topology the scenario sweeps run on (see rrsim -topology); non-default runs are what-if sweeps, so paper-vs-measured checks may fail by design")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := scenario.SetTopology(*topology); err != nil {
		fmt.Fprintf(stderr, "rrexp: %v\n", err)
		return 2
	}

	var matches func(string) bool
	if *filter != "" {
		re, err := regexp.Compile(*filter)
		if err != nil {
			fmt.Fprintf(stderr, "bad -filter: %v\n", err)
			return 2
		}
		matches = re.MatchString
	}

	if *list {
		// Sorted by ID and independent of registration order, so the
		// inventory is stable across refactors and diffable in CI logs.
		// Each entry carries its registered description, so the listing
		// says what an experiment sweeps, not just what it is called.
		exps := roadrunner.Experiments()
		sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
		for _, e := range exps {
			if matches != nil && !matches(e.ID) {
				continue
			}
			fmt.Fprintf(stdout, "%-22s %-45s %s\n", e.ID, e.Title, e.PaperRef)
			fmt.Fprintf(stdout, "%22s   %s\n", "", e.Description)
		}
		return 0
	}

	var ids []string
	if *runIDs == "all" {
		for _, e := range roadrunner.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	if matches != nil {
		kept := ids[:0]
		for _, id := range ids {
			if matches(id) {
				kept = append(kept, id)
			}
		}
		ids = kept
		if len(ids) == 0 {
			fmt.Fprintf(stderr, "no experiments match -filter %q\n", *filter)
			return 2
		}
	}

	opts := roadrunner.SuiteOptions{Timeout: *timeout}
	switch {
	case *workers > 0:
		opts.Workers = *workers
	case *parallel:
		opts.Workers = runtime.GOMAXPROCS(0)
	default:
		opts.Workers = 1
	}

	if *cache {
		dir := *cacheDir
		// Artifacts depend on the selected fabric; a per-topology
		// subdirectory keeps a what-if run from ever serving (or
		// poisoning) the default tree's cached artifacts.
		if name := scenario.TopologyName(); name != fabric.DefaultTopology {
			dir = filepath.Join(dir, "topo-"+name)
		}
		c, err := roadrunner.OpenArtifactCache(dir)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		opts.Cache = c
	}

	// Human-readable per-experiment output; moved to stderr when the
	// JSONL stream owns stdout so `-jsonl - | jq .` stays parseable.
	human := stdout
	var jsonlW io.Writer
	if *jsonl == "-" {
		jsonlW = stdout
		human = stderr
	} else if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer f.Close()
		jsonlW = f
	}
	var streamer *roadrunner.SuiteStreamer
	if jsonlW != nil || *csvDir != "" {
		streamer = roadrunner.NewSuiteStreamer(jsonlW, *csvDir)
		opts.OnResult = streamer.OnResult
	}

	// Ctrl-C cancels the remainder of the suite; completed artifacts and
	// cache entries are kept.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	results, err := roadrunner.RunExperiments(ctx, ids, opts)
	if err != nil && results == nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// Host checks (wall-clock floors) go to stderr with the other
	// measurements of this machine, so stdout stays a pure function of
	// the calibrated inputs.
	failures, hostFailures := 0, 0
	for _, r := range results {
		switch {
		case r.Err != nil:
			fmt.Fprintf(stderr, "[ERR ] %-22s %v\n", r.ID, r.Err)
			failures++
		case *quiet:
			status := "PASS"
			if !r.Artifact.Checks.AllOK() {
				status = "FAIL"
				failures++
			}
			tag := ""
			if r.CacheHit {
				tag = " (cached)"
			}
			fmt.Fprintf(human, "[%s] %-22s %s (%d checks, %v)%s\n",
				status, r.ID, r.Title, len(r.Artifact.Checks.Items),
				r.Elapsed.Round(time.Millisecond), tag)
		default:
			fmt.Fprintln(human, r.Artifact.Body())
			if !r.Artifact.Checks.AllOK() {
				failures++
			}
		}
		if r.Err == nil && len(r.Artifact.Host.Items) > 0 {
			fmt.Fprintf(stderr, "%s %s", r.ID, r.Artifact.HostSection())
			hostFailures += len(r.Artifact.Host.Failures())
		}
		if r.CacheErr != nil {
			fmt.Fprintf(stderr, "[warn] %-22s %v\n", r.ID, r.CacheErr)
		}
	}
	if streamer != nil {
		if err := streamer.Err(); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if opts.Cache != nil {
		hits, misses := opts.Cache.Stats()
		fmt.Fprintf(stderr, "cache: %d hit(s), %d miss(es) under %s\n",
			hits, misses, opts.Cache.Dir())
	}
	fmt.Fprintf(stderr, "%d experiment(s) in %v with %d worker(s)\n",
		len(results), time.Since(start).Round(time.Millisecond), opts.Workers)
	if err != nil {
		fmt.Fprintln(stderr, "suite cancelled:", err)
		return 1
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "%d experiment(s) failed\n", failures)
	}
	if hostFailures > 0 {
		fmt.Fprintf(stderr, "%d host check(s) failed\n", hostFailures)
	}
	if failures > 0 || hostFailures > 0 {
		return 1
	}
	return 0
}

// defaultCacheDir places the artifact cache under the user cache
// directory, falling back to a dot directory in the CWD.
func defaultCacheDir() string {
	if base, err := os.UserCacheDir(); err == nil {
		return base + "/roadrunner/artifacts"
	}
	return ".rrexp-cache"
}
