// Command rrserve runs the simulation-as-a-service HTTP server: the
// replay, placement-search and collective engines behind an
// asynchronous job API.
//
//	rrserve                          # :8080, GOMAXPROCS workers, cached
//	rrserve -addr :9000 -workers 8
//	rrserve -cache-dir "" -queue 64  # no persistent cache, small queue
//
// Submit work, poll the job, stream the result:
//
//	curl -s -X POST localhost:8080/v1/replay -d @request.json
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -s localhost:8080/v1/jobs/<id>/result
//
// docs/api.md is the full endpoint reference. Identical requests
// coalesce onto one job, finished artifacts persist in the
// content-addressed cache (same request + same model inputs + same
// binary = same artifact, served without simulating), and every
// artifact is byte-identical however it was scheduled
// (docs/determinism.md).
//
// Exit status: 0 on clean shutdown (SIGINT/SIGTERM), 1 on serve error,
// 2 on usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"roadrunner"
	"roadrunner/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "request workers (0 = GOMAXPROCS; changes wall clock only, never results)")
	queue := flag.Int("queue", 0, "job queue depth (0 = 1024); submissions beyond it get 503")
	maxBody := flag.Int64("max-body", 0, "request body bound in bytes (0 = 64 MB)")
	poolTraces := flag.Int("pool-traces", 0, "warm evaluator pools to retain (0 = 8)")
	cacheDir := flag.String("cache-dir", defaultCacheDir(), "artifact cache location ('' disables the persistent cache)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rrserve: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		return 2
	}

	opts := serve.Options{
		Workers:      *workers,
		QueueDepth:   *queue,
		MaxBodyBytes: *maxBody,
		PoolTraces:   *poolTraces,
	}
	if *cacheDir != "" {
		cache, err := roadrunner.OpenArtifactCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rrserve: opening cache: %v\n", err)
			return 1
		}
		opts.Cache = cache
		fmt.Printf("artifact cache at %s\n", cache.Dir())
	}

	srv := serve.New(opts)
	defer srv.Close()
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("rrserve listening on %s (model %s)\n", *addr, roadrunner.ModelFingerprint()[:12])

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "rrserve: %v\n", err)
			return 1
		}
	case s := <-sig:
		fmt.Printf("rrserve: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "rrserve: shutdown: %v\n", err)
			return 1
		}
	}
	return 0
}

// defaultCacheDir places the artifact cache under the user cache
// directory, falling back to a dot directory in the CWD — the same
// location rrexp uses, so a suite run and the server share entries'
// storage root (their key namespaces are disjoint).
func defaultCacheDir() string {
	if base, err := os.UserCacheDir(); err == nil {
		return filepath.Join(base, "roadrunner", "artifacts")
	}
	return ".roadrunner-artifacts"
}
