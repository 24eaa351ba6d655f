#!/usr/bin/env bash
# Distributed-fabric load smoke: TestLoadSmokeProcesses in
# internal/harness/smoke_test.go (2 recorder processes x 4 client
# processes against one aggregator: zero dropped epochs, exports
# byte-identical to each journal), then the in-process soak's
# throughput/latency numbers, held to the same contract every iteration.
#
# Run from anywhere: ./scripts/load-smoke.sh [go test flags, e.g. -v -race]
set -euo pipefail
cd "$(dirname "$0")/.."
SMOKE=1 go test -count=1 -run '^TestLoadSmokeProcesses$' "$@" ./internal/harness
go test ./internal/harness/loadtest -run '^$' -bench BenchmarkFabric -benchtime=3x | grep '^Benchmark'
