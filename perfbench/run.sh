#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload bulk --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout: the Go build cache, the
# binary, and the run's working and trace files.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"

bin="$out/perfbench"
(
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
	export GOTOOLCHAIN=local GOPROXY=off
	go -C perfbench build -o "$bin" .
) >&2
PERFBENCH_OUT="$out" exec "$bin" "$@"
