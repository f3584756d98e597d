#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the repository root; arguments pass through, e.g.
#   bash perfbench/run.sh --workload epoch-cold --seed 1 --seconds 10 --trace 0
# Everything it builds, generates and writes stays under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a RingSampler checkout (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --work "$out/work" "$@"
