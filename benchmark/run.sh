#!/usr/bin/env bash
# Builds the benchmark's test binary from this checkout's sources and
# runs it. Run from the repository root, for example:
#
#   bash benchmark/run.sh --workload serve-steady --seed 1 --seconds 25 --trace 0
#
# Arguments are passed to the benchmark (see benchmark/README.md). The
# build cache, the binary, temporary files and checkpoints all stay
# under .bench_build/ in the checkout. The last line of standard output
# is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
# With telemetry on (the default is "local"), every go command, including
# the `go tool pprof` a traced run starts, forks a detached telemetry
# process that can outlive this script. Turn it off.
printf 'off\n' >"$out/config/go/telemetry/mode"

go test -c -o "$out/benchmark.test" ./benchmark >&2
cd "$root/benchmark"
exec "$out/benchmark.test" -test.run '^TestBenchmark$' -test.count=1 -test.timeout=10m "$@"
