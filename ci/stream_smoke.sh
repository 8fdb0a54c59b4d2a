#!/usr/bin/env bash
# stream_smoke.sh — end-to-end check that the streaming ingestion path
# converges with batch upload: record a trace, upload it whole, then
# stream the same file in 1 KiB chunks; both must land on the same
# defect fingerprint, so the corpus holds one record with occurrences=2.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
wolfd_pid=""
cleanup() {
  if [ -n "$wolfd_pid" ]; then
    kill "$wolfd_pid" 2>/dev/null || true
    wait "$wolfd_pid" 2>/dev/null || true # let the shutdown snapshot land
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

addr="127.0.0.1:8178"
base="http://$addr"
datadir="$workdir/corpus"

echo "== build"
go build -o "$workdir/wolf" ./cmd/wolf
go build -o "$workdir/wolfd" ./cmd/wolfd
go build -o "$workdir/wolfctl" ./cmd/wolfctl

echo "== record a Figure4 detection trace"
"$workdir/wolf" -workload Figure4 -record "$workdir/fig4.wtrc"

echo "== start wolfd -data-dir"
"$workdir/wolfd" -addr "$addr" -data-dir "$datadir" -log-level warn &
wolfd_pid=$!
for _ in $(seq 1 50); do
  if curl -fsS "$base/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -fsS "$base/healthz" >/dev/null || { echo "wolfd did not come up" >&2; exit 1; }

echo "== batch upload"
"$workdir/wolfctl" -addr "$base" upload "$workdir/fig4.wtrc" -wait

echo "== stream the same trace in 1 KiB chunks"
"$workdir/wolfctl" -addr "$base" stream "$workdir/fig4.wtrc" -chunk 1024 -wait \
  | tee "$workdir/stream.out"
grep -q '^candidate' "$workdir/stream.out" \
  || { echo "no live candidates printed while streaming" >&2; exit 1; }

echo "== both paths converge on one defect record with occurrences=2"
"$workdir/wolfctl" -addr "$base" defects -json | tee "$workdir/defects.json"
records="$(grep -c '"fingerprint"' "$workdir/defects.json")"
[ "$records" -eq 1 ] || { echo "expected 1 defect record, got $records — stream and batch fingerprints diverged" >&2; exit 1; }
grep -q '"occurrences": 2' "$workdir/defects.json" \
  || { echo "expected occurrences=2 (batch + stream)" >&2; exit 1; }

echo "== stream metrics exported"
curl -fsS "$base/metrics" | tee "$workdir/metrics.out" | grep -E 'wolfd_stream' >/dev/null \
  || { echo "stream metrics missing from /metrics" >&2; exit 1; }
grep -q '^wolfd_stream_events_total [1-9]' "$workdir/metrics.out" \
  || { echo "wolfd_stream_events_total did not count streamed events" >&2; exit 1; }

echo "== stream smoke OK"
