# Mirrors .github/workflows/ci.yml so local runs and CI are identical.

GO ?= go

.PHONY: all build lint test perfbench-check bench bench-full bench-artifact bench-baseline bench-compare pdes-smoke docs docs-check suite clean

all: lint build test

build:
	$(GO) build ./...

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

test:
	$(GO) test -race ./...

# The benchmark of record's self-tests. perfbench/ is a nested module
# the root vet/test never reach; its tests run both workloads and the
# traced per-layer run and check every output (~100 s).
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# One iteration of every benchmark: the CI smoke that keeps the
# reproduction-record benches runnable. Use bench-full for measurements.
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

bench-full:
	$(GO) test -bench=. -benchmem -run '^$$' ./internal/sim/ ./internal/collectives/ ./internal/scenario/ ./internal/trace/ ./internal/placement/ ./internal/surrogate/ ./internal/facility/ .

# Collective + congested-transport + trace-replay + placement-search +
# sim hot-path benches as bench/BENCH_<short-sha>.json, the per-commit
# perf record CI uploads as an artifact next to the committed
# bench/BENCH_baseline.json (the trajectory anchor; see bench/README.md).
# The Saturation benches track the congested path's hot-loop cost
# (routing, link admission, queueing); the TraceReplay benches the
# one-shot replay; the EvaluatorReplay benches the pooled batch
# evaluation path side by side with it (the ~5x/7,500x pooling win);
# PlacementOptimize the optimizer end to end; the Surrogate
# benches the analytic pricing model the two-tier search screens with
# (price one mapping, cold-route pricing, and model compilation).
BENCH_RE = Collective|Saturation|TraceReplay|EvaluatorReplay|PlacementOptimize|EventLoop|ProcParkUnpark|Facility|TopoCompare|TopologyRoute|Surrogate
BENCH_PKGS = ./internal/collectives ./internal/scenario ./internal/trace ./internal/placement ./internal/surrogate ./internal/sim ./internal/facility ./internal/fabric

bench-artifact:
	$(GO) test -json -run '^$$' -bench '$(BENCH_RE)' \
		-benchmem $(BENCH_PKGS) > bench/BENCH_$$(git rev-parse --short HEAD).json

# Regenerate the committed trajectory anchor (one timed iteration per
# bench: cheap, and every iteration of the DES benches is a full run).
bench-baseline:
	$(GO) test -json -run '^$$' -bench '$(BENCH_RE)' -benchtime=1x \
		-benchmem $(BENCH_PKGS) > bench/BENCH_baseline.json

# Run the bench set once and print each bench's ns/op next to the
# committed baseline's, with the head/baseline ratio. Informational:
# wall clock varies across machines, so the anchor tracks trajectory
# rather than gating CI; eyeball the ratios (or point benchstat at the
# two JSON files) when a PR intentionally moves a hot path.
bench-compare:
	$(GO) test -json -run '^$$' -bench '$(BENCH_RE)' -benchtime=1x \
		-benchmem $(BENCH_PKGS) > /tmp/bench-head.json
	@# A bench result line is flushed as several JSON output events (the
	@# name before the timing), so reassemble each package's output
	@# stream before grepping for the "name ... ns/op" result lines.
	@jq -rs '[.[] | select(.Action=="output")] | group_by(.Package) | .[] | map(.Output) | add' \
		bench/BENCH_baseline.json \
		| awk '/^Benchmark/ && / ns\/op/ {print $$1, $$3}' | sort > /tmp/bench-base.txt
	@jq -rs '[.[] | select(.Action=="output")] | group_by(.Package) | .[] | map(.Output) | add' \
		/tmp/bench-head.json \
		| awk '/^Benchmark/ && / ns\/op/ {print $$1, $$3}' | sort > /tmp/bench-head.txt
	@printf '%-52s %14s %14s %9s\n' benchmark 'base ns/op' 'head ns/op' ratio
	@join /tmp/bench-base.txt /tmp/bench-head.txt \
		| awk '{r=($$2>0)?$$3/$$2:0; printf "%-52s %14.0f %14.0f %8.2fx\n", $$1, $$2, $$3, r}'
	@join -v1 /tmp/bench-base.txt /tmp/bench-head.txt | awk '{print "baseline only: " $$1}'
	@join -v2 /tmp/bench-base.txt /tmp/bench-head.txt | awk '{print "head only:     " $$1}'

# The worker-count byte-identity smoke CI runs (mirrored here): the
# coll-saturation and trace-replay experiments at GOMAXPROCS 1, 2 and
# 8, whose independent runs spread over that many workers, with the
# result JSONL and every CSV artifact diffed byte-for-byte across
# worker counts (only the wall-clock elapsed_ms field is
# stripped first — it is observability output, never simulation input).
pdes-smoke:
	@for p in 1 2 8; do \
		echo "pdes-smoke: GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) run ./cmd/rrexp -run coll-saturation,trace-replay -parallel -quiet \
			-jsonl /tmp/pdes-$$p.jsonl -csv /tmp/pdes-csv-$$p || exit 1; \
		jq -c 'del(.elapsed_ms)' /tmp/pdes-$$p.jsonl > /tmp/pdes-$$p.stripped.jsonl || exit 1; \
	done
	diff /tmp/pdes-1.stripped.jsonl /tmp/pdes-2.stripped.jsonl
	diff /tmp/pdes-1.stripped.jsonl /tmp/pdes-8.stripped.jsonl
	diff -r -x suite-summary.csv /tmp/pdes-csv-1 /tmp/pdes-csv-2
	diff -r -x suite-summary.csv /tmp/pdes-csv-1 /tmp/pdes-csv-8

# Regenerate the generated documentation (docs/experiments.md) and
# check it is current — CI fails when it is stale.
docs:
	$(GO) generate ./internal/experiments

docs-check:
	$(GO) run ./internal/experiments/expdocs -check docs/experiments.md
	$(GO) test -run TestEveryPackageHasDoc .

# The full evaluation through the orchestrator, all cores.
suite:
	$(GO) run ./cmd/rrexp -run all -parallel -quiet

clean:
	$(GO) clean ./...
