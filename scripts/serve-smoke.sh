#!/usr/bin/env bash
# inspector-serve smoke: record a histogram CPG, serve it, and check
# that every query kind answers remotely with byte-identical output to
# the local engine (the provenance/v1 contract CI holds the daemon to).
#
# Run from the repository root: ./scripts/serve-smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
serve_pid="" run_pid="" watch_pid=""
cleanup() {
  kill $serve_pid $run_pid $watch_pid 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/inspector-run" ./cmd/inspector-run
go build -o "$workdir/inspector-serve" ./cmd/inspector-serve
go build -o "$workdir/cpg-query" ./cmd/cpg-query

cpg="$workdir/histogram.cpg"
"$workdir/inspector-run" -app histogram -threads 1 -size small -seed 1 -cpg "$cpg" >/dev/null

# start_serve NAME PROBE ARGS...: launch the daemon on an OS-assigned
# port (no collisions on shared runners), read the actual address from
# its announce line, and wait until PROBE ("stats" through cpg-query, or
# an HTTP path for curl) answers. Sets $serve_pid and $addr.
start_serve() {
  local name=$1 probe=$2 log="$workdir/$1.log"
  shift 2
  "$workdir/inspector-serve" "$@" -addr 127.0.0.1:0 >"$log" 2>&1 &
  serve_pid=$!
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/.* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$log" | head -n 1)
    if [ -n "$addr" ]; then
      case $probe in
        /*) curl -fsS "http://$addr$probe" >/dev/null 2>&1 && return ;;
        *) "$workdir/cpg-query" -remote "http://$addr" $probe >/dev/null 2>&1 && return ;;
      esac
    fi
    sleep 0.1
  done
  echo "serve-smoke: $name daemon never became ready" >&2
  cat "$log" >&2
  exit 1
}
stop_serve() {
  kill "$serve_pid" 2>/dev/null || true
  wait "$serve_pid" 2>/dev/null || true
  serve_pid=""
}

start_serve serve stats -cpg "$cpg"

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

stop_serve

# Graceful-shutdown round: SIGTERM must drain and exit 0, and the
# health endpoints must report the documented states while serving.
start_serve drain /readyz -cpg "$cpg"

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
# mid-recording, recover the orphaned journal to a .cpg, and serve that
# artifact. The recovered prefix must match the uninterrupted run's
# journal replayed to the same epoch byte-for-byte, the recovery and the
# daemon's listing must both say degraded, and the served graph must
# answer queries with the same bytes as the local engine over the file.
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

start_serve journal stats -cpg "$workdir/recovered.cpg"
curl -fsS "http://$addr/v1/cpgs" | grep -q '"degraded": true' || {
  echo "serve-smoke: listing does not mark the recovered .cpg degraded" >&2
  curl -fsS "http://$addr/v1/cpgs" >&2 || true
  exit 1
}

# Remote answers match the local engine over the same artifact — stats
# included: the .cpg carries the recovered analysis itself, epoch and
# gap marks with it.
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
echo "serve-smoke: journal round passed (killed at epoch $epoch, recovered, served degraded, byte-identical)"

stop_serve

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

start_serve cpgdir "-id histogram stats" -cpgdir "$cpgdir" -resident-budget 4096

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

stop_serve

# Ingest round: the distributed fabric. An aggregator accepts streamed
# epoch-delta frames. First a run is served WHILE it records: watch must
# see the epoch advance and end when the stream seals, every query kind
# must answer mid-run, and the sealed source must answer with the bytes
# of the run's own .cpg. Then a clean 4-thread journaled + streamed run
# must leave the aggregator holding the byte-identical analysis of that
# run's journal, and a SIGKILLed one resumed via inspector-recover
# -stream must converge on its journal's bytes at the durable epoch.
start_serve ingest /readyz -ingest

# slow-fold fires inside every epoch's fold (1 ms each, ~4.8k epochs),
# so the mid-run window is seconds wide.
own="$workdir/own.cpg"
live=canneal-t2-s1
"$workdir/inspector-run" -app canneal -threads 2 -size medium -seed 1 -cpg "$own" \
  -stream "http://$addr" -faults "slow-fold:every=1" >"$workdir/live-run.out" 2>&1 &
run_pid=$!
lq() { "$workdir/cpg-query" -remote "http://$addr" -id "$live" "$@"; }
# Empty until the recorder's hello has created the source.
live_epoch() { { lq -format json stats 2>/dev/null || true; } | sed -n 's/.*"epoch": \([0-9]*\).*/\1/p'; }

e1=""
for _ in $(seq 1 100); do
  e1=$(live_epoch)
  [ -n "$e1" ] && [ "$e1" -ge 1 ] && break
  sleep 0.05
done
[ -n "$e1" ] && [ "$e1" -ge 1 ] || {
  echo "serve-smoke: streamed source never answered with an epoch (got '$e1')" >&2
  cat "$workdir/live-run.out" >&2
  exit 1
}
lq watch >"$workdir/watch.out" &
watch_pid=$!
lq verify >/dev/null
lq edges >/dev/null
lq edges data >"$workdir/live-data-edges.out"
lq slice T0.1 >/dev/null
lq taint T0.0 >/dev/null
lq path T0.0 T0.1 >/dev/null
live_edge=$(head -n 1 "$workdir/live-data-edges.out")
[ -z "$live_edge" ] || lq lineage "$(echo "$live_edge" | sed -n 's/.*pages=\[\([0-9]*\).*/\1/p')" \
  "$(echo "$live_edge" | awk '{print $3}')" >/dev/null
e2=$(live_epoch)
kill -0 "$run_pid" 2>/dev/null || {
  echo "serve-smoke: the streamed run ended before the mid-run queries did" >&2; exit 1;
}
[ "$e2" -gt "$e1" ] || {
  echo "serve-smoke: epoch never advanced past $e1 while the run streamed" >&2; exit 1;
}
wait "$run_pid" || { echo "serve-smoke: streamed run failed" >&2; cat "$workdir/live-run.out" >&2; exit 1; }
wait "$watch_pid" || { echo "serve-smoke: watch did not exit 0 when the stream sealed" >&2; exit 1; }
sed -n 's/^epoch \([0-9]*\)$/\1/p' "$workdir/watch.out" >"$workdir/watch-epochs.out"
[ "$(wc -l <"$workdir/watch-epochs.out")" -ge 2 ] && sort -n -c -u "$workdir/watch-epochs.out" &&
  tail -n 1 "$workdir/watch.out" | grep -q '^closed (final epoch' || {
  echo "serve-smoke: watch did not print increasing epochs and a close" >&2
  cat "$workdir/watch.out" >&2
  exit 1
}
echo "serve-smoke: epoch advanced $e1 -> $e2 mid-run, every query kind answered, watch followed $(wc -l <"$workdir/watch-epochs.out") epochs to the seal"

# Sealed, the source answers with the bytes of the run's own .cpg; only
# the stats epoch line tells a stream from a file.
fcheck() {
  echo "serve-smoke: sealed stream cpg-query $*"
  "$workdir/cpg-query" -cpg "$own" "$@" | grep -v '^epoch:' >"$workdir/local.out"
  lq "$@" | grep -v '^epoch:' >"$workdir/remote.out"
  diff -u "$workdir/local.out" "$workdir/remote.out" || {
    echo "serve-smoke: sealed stream diverges from the run's own .cpg for: $*" >&2
    exit 1
  }
}
fcheck stats
fcheck verify
fcheck edges
fcheck edges data
fcheck slice T0.300
fcheck taint T0.0
echo "serve-smoke: fabric live round passed (sealed stream = the run's own .cpg)"

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

stop_serve
