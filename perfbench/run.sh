#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it, passing all
# arguments through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload compile-cold --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh -compare OLD.jsonl NEW.jsonl
#
# The binary, Go's build cache and everything the run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
if [[ ! -f $root/go.mod || ! -f $root/perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

rev=unknown
if r=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null); then
	rev=$r
	if ! GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" diff --quiet HEAD 2>/dev/null; then
		rev=$rev+dirty
	fi
fi
export PERFBENCH_REVISION=$rev

mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp GOPATH=$build/gopath
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
