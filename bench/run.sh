#!/usr/bin/env bash
# Builds the benchmark and the qcworker binary it drives, then runs the
# benchmark with the arguments given:
#
#   bash bench/run.sh --workload engine-hardcore --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays in .bench_build/ at the
# root of the checkout: Go's build cache, the two binaries, and each
# run's scratch directory. Without the repository around it the build
# fails and the script exits non-zero before printing any result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
# No VCS stamping: a checkout need not be a git repository, and git
# refusing to answer must not fail the build. The commit, where git
# knows it, reaches the report's header through BENCH_COMMIT.
export GOFLAGS=-buildvcs=false
: "${BENCH_COMMIT:=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)}"
export BENCH_COMMIT

(cd "$root/bench" && go build -o "$out/bin/bench" .)
(cd "$root" && go build -o "$out/bin/qcworker" ./cmd/qcworker)

cd "$root"
exec "$out/bin/bench" -qcworker "$out/bin/qcworker" -workdir "$out" "$@"
