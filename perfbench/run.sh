#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --workload all [--seed <n>] [--seconds <s>] [--trace <0|1>]
#
# Every file the build and the run write stays under .bench_build/ in
# the checkout (Go build cache, temporary files, the binary, span
# files). "--workload all" runs each workload in its own process, one
# after the other.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/home" "$build/perfbench"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

bin="$build/perfbench/perfbench"
go -C "$root/perfbench" build -o "$bin" .

workload=""
args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload="${2:-}"; shift 2 ;;
	--workload=*) workload="${1#--workload=}"; shift ;;
	*) args+=("$1"); shift ;;
	esac
done

if [ "$workload" = "all" ]; then
	for w in collective-saturation placement-search; do
		"$bin" --out "$build/perfbench" --workload "$w" ${args[@]+"${args[@]}"}
	done
	exit 0
fi
exec "$bin" --out "$build/perfbench" --workload "$workload" ${args[@]+"${args[@]}"}
