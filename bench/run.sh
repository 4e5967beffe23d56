#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
# Run from the repository root:
#
#   bash bench/run.sh -seed 1
#   bash bench/run.sh --workload eval-lib --seed 3 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and temporary files.
# The toolchain is used as installed (no downloads), so a checkout missing
# the library sources fails here, before anything is measured.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOTELEMETRY=off

# The commit goes into the result files' provenance. Git looks no higher
# than this directory, and a plain source tree records "unknown".
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && ! GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" diff --quiet HEAD 2>/dev/null; then
	commit="$commit+dirty"
fi

(cd "$root/bench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/rlibm-bench" .)
exec "$out/rlibm-bench" "$@"
