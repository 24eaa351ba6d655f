#!/usr/bin/env bash
# inspector-serve smoke: record a histogram CPG, serve it, and check
# that every query kind answers remotely with byte-identical output to
# the local engine (the provenance/v1 contract CI holds the daemon to).
#
# Run from the repository root: ./scripts/serve-smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
serve_pid=""
cleanup() {
  [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/inspector-run" ./cmd/inspector-run
go build -o "$workdir/inspector-serve" ./cmd/inspector-serve
go build -o "$workdir/cpg-query" ./cmd/cpg-query

cpg="$workdir/histogram.cpg"
"$workdir/inspector-run" -app histogram -threads 1 -size small -seed 1 -cpg "$cpg" >/dev/null

# Bind an OS-assigned port (no collisions on shared runners); the
# daemon prints the actual address once it is listening.
"$workdir/inspector-serve" -cpg "$cpg" -addr 127.0.0.1:0 >"$workdir/serve.log" 2>&1 &
serve_pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/.* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$workdir/serve.log")
  if [ -n "$addr" ] && "$workdir/cpg-query" -remote "http://$addr" stats >/dev/null 2>&1; then
    break
  fi
  addr=""
  sleep 0.1
done
[ -n "$addr" ] || { echo "serve-smoke: daemon never became ready" >&2; cat "$workdir/serve.log" >&2; exit 1; }

# Deterministic query targets from the single-thread run: the slice and
# path target is thread 0's last sub-computation, the lineage probe is
# the first data edge.
subs=$("$workdir/cpg-query" -cpg "$cpg" -format json stats | sed -n 's/.*"sub_computations": \([0-9]*\).*/\1/p')
last="T0.$((subs - 1))"
"$workdir/cpg-query" -cpg "$cpg" edges data >"$workdir/data-edges.out"
data_edge=$(head -n 1 "$workdir/data-edges.out")
reader=$(echo "$data_edge" | awk '{print $3}')
page=$(echo "$data_edge" | sed -n 's/.*pages=\[\([0-9]*\).*/\1/p')

check() {
  echo "serve-smoke: cpg-query $*"
  "$workdir/cpg-query" -cpg "$cpg" "$@" >"$workdir/local.out"
  "$workdir/cpg-query" -remote "http://$addr" "$@" >"$workdir/remote.out"
  diff -u "$workdir/local.out" "$workdir/remote.out" || {
    echo "serve-smoke: remote output diverges for: $*" >&2
    exit 1
  }
}

check stats
check verify
check edges
check edges data
check slice "$last"
check taint T0.0
check path T0.0 "$last"
if [ -n "$page" ] && [ -n "$reader" ]; then
  check lineage "$page" "$reader"
fi
check -format json stats
check -format json slice "$last"

echo "serve-smoke: all query kinds byte-identical local vs remote"

# Live round: serve a workload WHILE it records (-live), query mid-run,
# and assert the analysis epoch advances — the provenance/v1 liveness
# contract. -live-slowdown stretches the recording so the mid-run window
# is comfortably wider than the polling interval.
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
"$workdir/inspector-serve" -workload histogram -threads 4 -size small -seed 1 \
  -live -live-slowdown 25ms -addr 127.0.0.1:0 >"$workdir/live.log" 2>&1 &
serve_pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/.* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$workdir/live.log" | head -n 1)
  if [ -n "$addr" ] && "$workdir/cpg-query" -remote "http://$addr" -format json stats >/dev/null 2>&1; then
    break
  fi
  addr=""
  sleep 0.1
done
[ -n "$addr" ] || { echo "serve-smoke: live daemon never became ready" >&2; cat "$workdir/live.log" >&2; exit 1; }

live_epoch() {
  "$workdir/cpg-query" -remote "http://$addr" -format json stats |
    sed -n 's/.*"epoch": \([0-9]*\).*/\1/p'
}
live_subs() {
  "$workdir/cpg-query" -remote "http://$addr" -format json stats |
    sed -n 's/.*"sub_computations": \([0-9]*\).*/\1/p'
}

e1=$(live_epoch)
s1=$(live_subs)
[ -n "$e1" ] && [ "$e1" -ge 1 ] || {
  echo "serve-smoke: live response carries no epoch (got '$e1')" >&2; exit 1;
}
advanced=""
for _ in $(seq 1 200); do
  e2=$(live_epoch)
  if [ -n "$e2" ] && [ "$e2" -gt "$e1" ]; then
    advanced=yes
    break
  fi
  sleep 0.05
done
[ -n "$advanced" ] || {
  echo "serve-smoke: live epoch never advanced past $e1 while the workload ran" >&2
  cat "$workdir/live.log" >&2
  exit 1
}
s2=$(live_subs)
[ "$s2" -ge "$s1" ] || {
  echo "serve-smoke: sub-computation count regressed mid-run: $s1 -> $s2" >&2; exit 1;
}
echo "serve-smoke: live epoch advanced $e1 -> $e2 mid-run (subs $s1 -> $s2)"

# The live graph answers every query kind mid-run or post-run alike.
"$workdir/cpg-query" -remote "http://$addr" verify >/dev/null
"$workdir/cpg-query" -remote "http://$addr" slice T0.0 >/dev/null
echo "serve-smoke: live round passed"

kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

# Graceful-shutdown round: SIGTERM must drain and exit 0, and the
# health endpoints must report the documented states while serving.
"$workdir/inspector-serve" -cpg "$cpg" -addr 127.0.0.1:0 >"$workdir/drain.log" 2>&1 &
serve_pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/.* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$workdir/drain.log" | head -n 1)
  if [ -n "$addr" ] && curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then
    break
  fi
  addr=""
  sleep 0.1
done
[ -n "$addr" ] || { echo "serve-smoke: drain daemon never became ready" >&2; cat "$workdir/drain.log" >&2; exit 1; }

curl -fsS "http://$addr/healthz" | grep -q '"ok": true' || {
  echo "serve-smoke: /healthz did not report ok" >&2; exit 1;
}
curl -fsS "http://$addr/readyz" | grep -q '"ready": true' || {
  echo "serve-smoke: /readyz did not report ready" >&2; exit 1;
}

# Start a request, let it reach the server, then SIGTERM: the daemon
# must let it finish, stop accepting, and exit 0 within the drain
# deadline. (True mid-flight drain is pinned deterministically by
# TestServeGracefulDrain; here we only need shutdown-under-traffic.)
"$workdir/cpg-query" -remote "http://$addr" stats >"$workdir/inflight.out" &
query_pid=$!
sleep 0.2
kill -TERM "$serve_pid"
wait "$query_pid" || { echo "serve-smoke: in-flight query failed during drain" >&2; exit 1; }
rc=0
wait "$serve_pid" || rc=$?
serve_pid=""
[ "$rc" -eq 0 ] || {
  echo "serve-smoke: daemon exited $rc after SIGTERM (want 0)" >&2
  cat "$workdir/drain.log" >&2
  exit 1
}
grep -q 'draining' "$workdir/drain.log" || {
  echo "serve-smoke: no drain announcement in the log" >&2
  cat "$workdir/drain.log" >&2
  exit 1
}
echo "serve-smoke: graceful shutdown round passed (SIGTERM drained, exit 0)"

# Journal round: record with a write-ahead journal, SIGKILL a twin run
# mid-recording, recover the orphaned journal, and serve the recovery.
# The recovered prefix must match the uninterrupted run's journal
# replayed to the same epoch byte-for-byte, the recovery must say it is
# degraded, and the served graph must answer queries with the same bytes
# as the local engine over the recovered artifact.
go build -o "$workdir/inspector-recover" ./cmd/inspector-recover

jref="$workdir/jref"
jkill="$workdir/jkill"
"$workdir/inspector-run" -app histogram -threads 1 -size small -seed 1 -journal "$jref" >/dev/null

rc=0
# The trailing exit keeps bash from exec-ing into the child, so the
# subshell survives to absorb the job-control "Killed" notice.
( "$workdir/inspector-run" -app histogram -threads 1 -size small -seed 1 -journal "$jkill" \
  -faults "crash:after=1,count=1"; exit $? ) >/dev/null 2>&1 || rc=$?
[ "$rc" -ne 0 ] || { echo "serve-smoke: crash fault did not kill the run" >&2; exit 1; }

summary=$("$workdir/inspector-recover" -journal "$jkill" -summary-json)
echo "$summary" | grep -q '"sealed":false' || {
  echo "serve-smoke: killed journal claims a clean seal: $summary" >&2; exit 1;
}
echo "$summary" | grep -q '"degraded":true' || {
  echo "serve-smoke: killed journal not marked degraded: $summary" >&2; exit 1;
}
epoch=$(echo "$summary" | sed -n 's/.*"epoch":\([0-9]*\).*/\1/p')
[ -n "$epoch" ] && [ "$epoch" -ge 1 ] || {
  echo "serve-smoke: no durable epoch recovered: $summary" >&2; exit 1;
}

"$workdir/inspector-recover" -journal "$jkill" -q \
  -analysis "$workdir/killed-analysis.json" -cpg "$workdir/recovered.cpg"
"$workdir/inspector-recover" -journal "$jref" -q -epoch "$epoch" \
  -analysis "$workdir/ref-analysis.json"
diff -u "$workdir/ref-analysis.json" "$workdir/killed-analysis.json" || {
  echo "serve-smoke: killed-run recovery diverges from the clean run at epoch $epoch" >&2
  exit 1
}

"$workdir/inspector-serve" -journal "$jkill" -addr 127.0.0.1:0 >"$workdir/journal.log" 2>&1 &
serve_pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/.* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$workdir/journal.log" | head -n 1)
  if [ -n "$addr" ] && "$workdir/cpg-query" -remote "http://$addr" stats >/dev/null 2>&1; then
    break
  fi
  addr=""
  sleep 0.1
done
[ -n "$addr" ] || { echo "serve-smoke: journal daemon never became ready" >&2; cat "$workdir/journal.log" >&2; exit 1; }
grep -q 'torn tail\|unsealed' "$workdir/journal.log" || {
  echo "serve-smoke: daemon log never announced the degraded recovery" >&2
  cat "$workdir/journal.log" >&2
  exit 1
}

# Remote answers over the recovered journal match the local engine over
# the recovered artifact — stats included: the .cpg carries the
# recovered analysis itself, epoch and gap marks with it.
jcheck() {
  echo "serve-smoke: journal cpg-query $*"
  "$workdir/cpg-query" -cpg "$workdir/recovered.cpg" "$@" >"$workdir/local.out"
  "$workdir/cpg-query" -remote "http://$addr" "$@" >"$workdir/remote.out"
  diff -u "$workdir/local.out" "$workdir/remote.out" || {
    echo "serve-smoke: journal remote output diverges for: $*" >&2
    exit 1
  }
}
jcheck stats
jcheck edges
jcheck edges data
jcheck slice T0.0
jcheck taint T0.0
jcheck verify
echo "serve-smoke: journal round passed (killed at epoch $epoch, recovered, served, byte-identical)"

kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

# CPG-directory round: serve a directory of recorded .cpg files lazily
# under a deliberately tiny resident budget, and hold the bounded-memory
# store to the same byte-identical contract as the eager -cpg engine —
# then repeat a query and assert the content-addressed result cache
# answered it.
cpgdir="$workdir/cpgdir"
mkdir -p "$cpgdir"
cp "$cpg" "$cpgdir/histogram.cpg"
"$workdir/inspector-run" -app word_count -threads 1 -size small -seed 2 \
  -cpg "$cpgdir/word_count.cpg" >/dev/null

"$workdir/inspector-serve" -cpgdir "$cpgdir" -resident-budget 4096 \
  -addr 127.0.0.1:0 >"$workdir/cpgdir.log" 2>&1 &
serve_pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/.* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$workdir/cpgdir.log" | head -n 1)
  if [ -n "$addr" ] && "$workdir/cpg-query" -remote "http://$addr" -id histogram stats >/dev/null 2>&1; then
    break
  fi
  addr=""
  sleep 0.1
done
[ -n "$addr" ] || { echo "serve-smoke: cpgdir daemon never became ready" >&2; cat "$workdir/cpgdir.log" >&2; exit 1; }

dcheck() {
  echo "serve-smoke: cpgdir cpg-query $*"
  "$workdir/cpg-query" -cpg "$cpg" "$@" >"$workdir/local.out"
  "$workdir/cpg-query" -remote "http://$addr" -id histogram "$@" >"$workdir/remote.out"
  diff -u "$workdir/local.out" "$workdir/remote.out" || {
    echo "serve-smoke: cpgdir remote output diverges for: $*" >&2
    exit 1
  }
}
dcheck stats
dcheck verify
dcheck edges
dcheck edges data
dcheck slice "$last"
dcheck taint T0.0
dcheck -format json stats

# The repeat of every dcheck query above must have hit the result cache;
# GET /v1/store exposes the counters.
dcheck stats
hits=$(curl -fsS "http://$addr/v1/store" | sed -n 's/.*"hits": \([0-9]*\).*/\1/p')
[ -n "$hits" ] && [ "$hits" -ge 1 ] || {
  echo "serve-smoke: repeated query never hit the result cache (hits='$hits')" >&2
  curl -fsS "http://$addr/v1/store" >&2 || true
  exit 1
}
cpgs=$(curl -fsS "http://$addr/v1/store" | sed -n 's/.*"cpgs": \([0-9]*\).*/\1/p')
[ "$cpgs" = "2" ] || {
  echo "serve-smoke: /v1/store reports $cpgs cpgs, want 2" >&2; exit 1;
}
echo "serve-smoke: cpgdir round passed (lazy store byte-identical, $hits cache hits)"

kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

# Ingest round: the distributed fabric. An aggregator accepts streamed
# epoch-delta frames; a clean 4-thread journaled + streamed run must
# leave it holding the byte-identical analysis of that run's journal,
# and a SIGKILLed one resumed via inspector-recover -stream must
# converge on its journal's bytes at the durable epoch.
"$workdir/inspector-serve" -ingest -addr 127.0.0.1:0 >"$workdir/ingest.log" 2>&1 &
serve_pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/.* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$workdir/ingest.log" | head -n 1)
  if [ -n "$addr" ] && curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then
    break
  fi
  addr=""
  sleep 0.1
done
[ -n "$addr" ] || { echo "serve-smoke: ingest daemon never became ready" >&2; cat "$workdir/ingest.log" >&2; exit 1; }

# Clean 4-thread run with journal, stream and live stats all on: they
# are sinks of one fold, so the run reports one epoch count for all
# three and the aggregator must hold the byte-identical analysis of the
# run's own journal replayed in full. (At >1 thread two runs never cut
# the same epochs, so the run's own journal is the only reference.)
jclean="$workdir/jclean"
"$workdir/inspector-run" -app histogram -threads 4 -size small -seed 1 \
  -journal "$jclean" -stream "http://$addr" -stream-id clean -live-stats >"$workdir/stream-clean.out"
grep -q 'epochs shipped' "$workdir/stream-clean.out" || {
  echo "serve-smoke: clean streaming run never shipped" >&2
  cat "$workdir/stream-clean.out" >&2
  exit 1
}
counts=$(sed -n -e 's/^live analysis: *\([0-9]*\) epochs folded.*/\1/p' \
  -e 's/^journal: *\([0-9]*\) epochs sealed.*/\1/p' \
  -e 's/^stream: *\([0-9]*\) epochs shipped.*/\1/p' "$workdir/stream-clean.out" | sort -u | tr '\n' ' ')
[ "$(echo $counts | wc -w)" -eq 1 ] || {
  echo "serve-smoke: journal, stream and live stats disagree on the epoch count: $counts" >&2
  cat "$workdir/stream-clean.out" >&2
  exit 1
}
[ "$(grep -c -e '^live analysis:' -e '^journal:' -e '^stream:' "$workdir/stream-clean.out")" -eq 3 ] || {
  echo "serve-smoke: clean run did not report all three sinks" >&2
  cat "$workdir/stream-clean.out" >&2
  exit 1
}
"$workdir/inspector-recover" -journal "$jclean" -q -analysis "$workdir/ref-full.json"
curl -fsS "http://$addr/v1/cpgs/clean/export" >"$workdir/agg-clean.json"
diff -u "$workdir/ref-full.json" "$workdir/agg-clean.json" || {
  echo "serve-smoke: clean stream's aggregator export diverges from the journal replay" >&2
  exit 1
}

# SIGKILL a 4-thread streaming recorder mid-run (crash fires at a commit
# boundary, after the fold journaled and queued that very epoch), then
# re-feed the journal: its record k is the very delta the wire carried
# as frame k, so dedup absorbs whatever prefix made it out before the
# kill and the aggregator lands exactly on the journal's durable epoch.
jskill="$workdir/jskill"
rc=0
( "$workdir/inspector-run" -app histogram -threads 4 -size small -seed 1 \
  -journal "$jskill" -stream "http://$addr" \
  -faults "crash:after=8,count=1"; exit $? ) >/dev/null 2>&1 || rc=$?
[ "$rc" -ne 0 ] || { echo "serve-smoke: crash fault did not kill the streaming run" >&2; exit 1; }

skill_summary=$("$workdir/inspector-recover" -journal "$jskill" -summary-json)
skill_epoch=$(echo "$skill_summary" | sed -n 's/.*"epoch":\([0-9]*\).*/\1/p')
skill_source=$(echo "$skill_summary" | sed -n 's/.*"run_id":"\([^"]*\)".*/\1/p')
[ -n "$skill_epoch" ] && [ "$skill_epoch" -ge 1 ] || {
  echo "serve-smoke: killed streaming journal has no durable epoch: $skill_summary" >&2; exit 1;
}
[ "$skill_source" = "histogram-t4-s1" ] || {
  echo "serve-smoke: streaming run id not deterministic: $skill_summary" >&2; exit 1;
}

"$workdir/inspector-recover" -journal "$jskill" -stream "http://$addr" >"$workdir/restream.out"
grep -q 'aggregator at epoch' "$workdir/restream.out" || {
  echo "serve-smoke: recover -stream never reported the aggregator offset" >&2
  cat "$workdir/restream.out" >&2
  exit 1
}
# The reference is the killed run's own journal, replayed as a
# deliberate prefix (no truncation mark: the aggregator's source is
# merely unsealed, not cut short).
"$workdir/inspector-recover" -journal "$jskill" -q -epoch "$skill_epoch" \
  -analysis "$workdir/ref-at-kill.json"
curl -fsS "http://$addr/v1/cpgs/$skill_source/export" >"$workdir/agg-resumed.json"
diff -u "$workdir/ref-at-kill.json" "$workdir/agg-resumed.json" || {
  echo "serve-smoke: resumed stream diverges from the journal at epoch $skill_epoch" >&2
  exit 1
}
echo "serve-smoke: ingest round passed (clean stream byte-identical; SIGKILL at epoch $skill_epoch resumed byte-identical)"

kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
