#!/usr/bin/env bash
# inspector-serve smoke: the multi-process rounds (remote = local bytes,
# SIGTERM drain, recovered .cpg served degraded, cpgdir + result cache,
# and the ingest rounds) are TestServeSmoke in
# internal/harness/smoke_test.go; plain `go test ./...` skips them.
#
# Run from anywhere: ./scripts/serve-smoke.sh [go test flags, e.g. -v -race]
set -euo pipefail
cd "$(dirname "$0")/.."
SMOKE=1 exec go test -count=1 -run '^TestServeSmoke$' "$@" ./internal/harness
