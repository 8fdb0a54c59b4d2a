#!/usr/bin/env bash
# ops_smoke.sh — end-to-end check of the causal-tracing and ops surface:
# start wolfd, stream a Figure4 recording while polling /v1/status and
# tailing /v1/debug/events, and assert that a client-supplied W3C
# traceparent round-trips verbatim into the job record, the event log,
# and the exported timeline.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
wolfd_pid=""
tail_pid=""
cleanup() {
  for pid in "$tail_pid" "$wolfd_pid"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  for pid in "$tail_pid" "$wolfd_pid"; do
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true # let the shutdown snapshot land
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

addr="127.0.0.1:8179"
base="http://$addr"
datadir="$workdir/corpus"

echo "== build"
go build -o "$workdir/wolf" ./cmd/wolf
go build -o "$workdir/wolfd" ./cmd/wolfd
go build -o "$workdir/wolfctl" ./cmd/wolfctl

echo "== record a Figure4 detection trace"
"$workdir/wolf" -workload Figure4 -record "$workdir/fig4.wtrc"

echo "== start wolfd -data-dir with a small flight recorder"
"$workdir/wolfd" -addr "$addr" -data-dir "$datadir" -flight-recorder 256 -log-level warn &
wolfd_pid=$!
for _ in $(seq 1 50); do
  if curl -fsS "$base/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -fsS "$base/healthz" >/dev/null || { echo "wolfd did not come up" >&2; exit 1; }

echo "== healthz carries the ops fields"
curl -fsS "$base/healthz" | tee "$workdir/healthz.json"; echo
grep -q '"draining": *false' "$workdir/healthz.json" \
  || { echo "healthz missing draining flag" >&2; exit 1; }
grep -q '"streams_open"' "$workdir/healthz.json" \
  || { echo "healthz missing streams_open" >&2; exit 1; }
grep -q '"version"' "$workdir/healthz.json" \
  || { echo "healthz missing build version" >&2; exit 1; }

echo "== open a live SSE tail of /v1/debug/events"
curl -fsSN "$base/v1/debug/events?follow=1" > "$workdir/tail.sse" &
tail_pid=$!

echo "== stream the trace while polling /v1/status"
"$workdir/wolfctl" -addr "$base" stream "$workdir/fig4.wtrc" -chunk 1024 -wait
"$workdir/wolfctl" -addr "$base" status | tee "$workdir/status.out"
grep -q '^wolfd ok' "$workdir/status.out" \
  || { echo "wolfctl status did not report ok" >&2; exit 1; }
grep -q '^corpus' "$workdir/status.out" \
  || { echo "wolfctl status missing corpus line" >&2; exit 1; }

echo "== upload with a client-supplied traceparent"
trace_id="4bf92f3577b34da6a3ce929d0e0e4736"
"$workdir/wolfctl" -addr "$base" upload "$workdir/fig4.wtrc" -wait \
  -traceparent "00-$trace_id-00f067aa0ba902b7-01" | tee "$workdir/upload.out"
job_id="$(awk '{print $1; exit}' "$workdir/upload.out")"
[ -n "$job_id" ] || { echo "no job id from upload" >&2; exit 1; }

echo "== trace ID round-trips into the job record"
curl -fsS "$base/v1/jobs/$job_id" | tee "$workdir/job.json"; echo
grep -Eq "\"trace\": *\"$trace_id\"" "$workdir/job.json" \
  || { echo "job record missing the client trace ID" >&2; exit 1; }

echo "== ...into the flight-recorder events"
"$workdir/wolfctl" -addr "$base" tail -trace "$trace_id" | tee "$workdir/events.out"
for kind in job.queued job.started job.done; do
  grep -q "$kind" "$workdir/events.out" \
    || { echo "no $kind event for trace $trace_id" >&2; exit 1; }
done

echo "== ...and into the exported timeline"
curl -fsS "$base/v1/jobs/$job_id/timeline" > "$workdir/timeline.json"
grep -q "$trace_id" "$workdir/timeline.json" \
  || { echo "timeline export missing the trace ID" >&2; exit 1; }

echo "== /v1/status reflects the finished work"
curl -fsS "$base/v1/status" | tee "$workdir/status.json"; echo
grep -Eq '"status": *"ok"' "$workdir/status.json" \
  || { echo "status not ok" >&2; exit 1; }
grep -Eq '"analysis": *\{'  "$workdir/status.json" \
  || { echo "status missing analysis latency quantiles" >&2; exit 1; }

echo "== the SSE tail saw the stream and the upload live"
sleep 0.5
kill "$tail_pid" 2>/dev/null || true
wait "$tail_pid" 2>/dev/null || true
tail_pid=""
grep -q '^id: ' "$workdir/tail.sse" \
  || { echo "SSE tail produced no frames" >&2; exit 1; }
grep -q 'stream.open' "$workdir/tail.sse" \
  || { echo "SSE tail missing stream.open event" >&2; exit 1; }
grep -q "$trace_id" "$workdir/tail.sse" \
  || { echo "SSE tail never carried the client trace ID" >&2; exit 1; }

echo "== event metrics exported"
curl -fsS "$base/metrics" > "$workdir/metrics.out"
grep -q 'wolfd_events_total{kind="job.done"}' "$workdir/metrics.out" \
  || { echo "wolfd_events_total missing from /metrics" >&2; exit 1; }

echo "== ops smoke OK"
