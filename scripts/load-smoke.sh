#!/usr/bin/env bash
# Distributed-fabric load smoke: M streaming recorder processes push
# epoch deltas at one aggregator while N query/watch client processes
# hammer it, then every source's aggregator export is diffed against the
# recorder's own journal replay. The pass criteria are the fabric
# contract — zero dropped epochs (every source sealed at its journal's
# final epoch) and byte-identical exports — plus the in-process soak
# (internal/harness/loadtest) for throughput/latency numbers.
#
# Run from the repository root: ./scripts/load-smoke.sh [M] [N]
set -euo pipefail

recorders=${1:-2}
clients=${2:-4}

workdir=$(mktemp -d)
serve_pid=""
cleanup() {
  [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/inspector-run" ./cmd/inspector-run
go build -o "$workdir/inspector-serve" ./cmd/inspector-serve
go build -o "$workdir/inspector-recover" ./cmd/inspector-recover
go build -o "$workdir/cpg-query" ./cmd/cpg-query

"$workdir/inspector-serve" -ingest -addr 127.0.0.1:0 >"$workdir/serve.log" 2>&1 &
serve_pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/.* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$workdir/serve.log" | head -n 1)
  if [ -n "$addr" ] && curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then
    break
  fi
  addr=""
  sleep 0.1
done
[ -n "$addr" ] || { echo "load-smoke: aggregator never became ready" >&2; cat "$workdir/serve.log" >&2; exit 1; }

# M recorders, distinct workloads/seeds, each journaled (the ground
# truth) and streamed (the thing under test) at the same epoch cadence.
apps=(histogram word_count matrix_multiply string_match kmeans linear_regression)
rec_pids=()
sources=()
for i in $(seq 0 $((recorders - 1))); do
  app=${apps[$((i % ${#apps[@]}))]}
  seed=$((100 + i))
  src="rec$i-$app"
  sources+=("$src")
  "$workdir/inspector-run" -app "$app" -threads 2 -size small -seed "$seed" \
    -journal "$workdir/j$i" -stream "http://$addr" -stream-id "$src" \
    >"$workdir/rec$i.out" 2>&1 &
  rec_pids+=($!)
done

# N clients: watchers ride the epoch push until their source seals,
# the rest poll stats in a loop. They start alongside the recorders —
# sources that are not bound yet answer 404, which is part of the load.
cli_pids=()
for i in $(seq 0 $((clients - 1))); do
  src=${sources[$((i % recorders))]}
  if [ $((i % 2)) -eq 0 ]; then
    (
      for _ in $(seq 1 200); do
        if "$workdir/cpg-query" -remote "http://$addr" -id "$src" watch \
          >"$workdir/watch$i.out" 2>/dev/null; then
          exit 0
        fi
        sleep 0.05
      done
      exit 1
    ) &
  else
    (
      while kill -0 "${rec_pids[0]}" 2>/dev/null; do
        "$workdir/cpg-query" -remote "http://$addr" -id "$src" stats >/dev/null 2>&1 || true
      done
    ) &
  fi
  cli_pids+=($!)
done

for i in $(seq 0 $((recorders - 1))); do
  wait "${rec_pids[$i]}" || {
    echo "load-smoke: recorder $i failed" >&2
    cat "$workdir/rec$i.out" >&2
    exit 1
  }
  grep -q 'epochs shipped' "$workdir/rec$i.out" || {
    echo "load-smoke: recorder $i never shipped its stream" >&2
    cat "$workdir/rec$i.out" >&2
    exit 1
  }
done

for pid in "${cli_pids[@]}"; do
  wait "$pid" || { echo "load-smoke: a client process failed" >&2; exit 1; }
done
for i in $(seq 0 $((clients - 1))); do
  if [ $((i % 2)) -eq 0 ]; then
    grep -q 'closed' "$workdir/watch$i.out" || {
      echo "load-smoke: watcher $i never saw its source close" >&2
      cat "$workdir/watch$i.out" >&2
      exit 1
    }
  fi
done

# The contract: every source sealed at the journal's final epoch, with
# byte-identical analysis bytes.
for i in $(seq 0 $((recorders - 1))); do
  src=${sources[$i]}
  epoch=$("$workdir/inspector-recover" -journal "$workdir/j$i" -summary-json |
    sed -n 's/.*"epoch":\([0-9]*\).*/\1/p')
  offset=$(curl -fsS "http://$addr/v1/ingest/$src")
  echo "$offset" | grep -q '"sealed": true' || {
    echo "load-smoke: source $src not sealed: $offset" >&2; exit 1;
  }
  echo "$offset" | grep -q "\"next_epoch\": $((epoch + 1))" || {
    echo "load-smoke: source $src dropped epochs (journal holds $epoch): $offset" >&2; exit 1;
  }
  "$workdir/inspector-recover" -journal "$workdir/j$i" -q -analysis "$workdir/ref$i.json"
  curl -fsS "http://$addr/v1/cpgs/$src/export" >"$workdir/agg$i.json"
  diff -u "$workdir/ref$i.json" "$workdir/agg$i.json" || {
    echo "load-smoke: source $src aggregator export diverges from its journal" >&2
    exit 1
  }
  echo "load-smoke: $src sealed at epoch $epoch, export byte-identical"
done

# Throughput/latency numbers come from the in-process soak, which holds
# itself to the same contract on every iteration.
go test ./internal/harness/loadtest -run '^$' -bench BenchmarkFabric -benchtime=3x | grep '^Benchmark'

echo "load-smoke: $recorders recorders x $clients clients passed (zero dropped epochs, byte-identical exports)"
