#!/usr/bin/env bash
# Builds e2ebench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash e2ebench/run.sh --workload fig12 --seed 1 --seconds 40 --trace 0
#   bash e2ebench/run.sh steady -runs 10      # steadiness report
#   bash e2ebench/run.sh golden               # regenerate golden.json
#
# The build cache, the binary and the traced runs' spans and CPU profiles
# all stay under .bench_build/e2ebench in the current directory.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build/e2ebench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$src" && go build -o "$build/e2ebench" .) >&2
if [ "${1:-}" = golden ]; then
	shift
	exec "$build/e2ebench" golden -o "$src/golden.json" "$@"
fi
exec "$build/e2ebench" "$@"
