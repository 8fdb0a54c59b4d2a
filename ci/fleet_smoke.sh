#!/usr/bin/env bash
# fleet_smoke.sh — end-to-end drill of the coordinator/analyzer fleet:
# start a coordinator and two analyzers, freeze one analyzer mid-job
# (SIGSTOP so the freeze is verifiable, then SIGKILL), and assert the
# coordinator declares the node lost, reassigns its leased job to the
# survivor, and lands the exact defect corpus a single-process wolfd
# produces from the same inputs.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
coord_pid=""
a_pid=""
b_pid=""
single_pid=""
cleanup() {
  for pid in "$a_pid" "$b_pid" "$coord_pid" "$single_pid"; do
    [ -n "$pid" ] && kill -CONT "$pid" 2>/dev/null || true
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  for pid in "$a_pid" "$b_pid" "$coord_pid" "$single_pid"; do
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true # let the shutdown snapshot land
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

addr="127.0.0.1:8187"
base="http://$addr"
datadir="$workdir/corpus"

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "$1 did not come up" >&2
  return 1
}

job_field() { # job_field <base> <job> <field>
  curl -fsS "$2/v1/jobs/$1" 2>/dev/null \
    | sed -n "s/.*\"$3\": *\"\([^\"]*\)\".*/\1/p" | head -1
}

echo "== build"
go build -o "$workdir/wolf" ./cmd/wolf
go build -o "$workdir/wolfd" ./cmd/wolfd
go build -o "$workdir/wolfctl" ./cmd/wolfctl

echo "== record detection traces"
"$workdir/wolf" -workload Figure4 -record "$workdir/fig4.wtrc"
# Jigsaw is the freeze target: 2000+ tuples keep the analyzer busy for
# tens of milliseconds, wide enough to SIGSTOP it mid-lease.
"$workdir/wolf" -workload Jigsaw -record "$workdir/jig.wtrc"

echo "== start the coordinator (short lease/heartbeat so failures bite fast)"
"$workdir/wolfd" -addr "$addr" -role coordinator -data-dir "$datadir" \
  -lease-ttl 2s -heartbeat 500ms -heartbeat-timeout 3s -log-level warn &
coord_pid=$!
wait_healthy "$base"
curl -fsS "$base/healthz" | grep -q '"role": *"coordinator"' \
  || { echo "coordinator healthz missing role" >&2; exit 1; }

echo "== start analyzer alpha"
"$workdir/wolfd" -addr 127.0.0.1:8188 -role analyzer -coordinator "$base" \
  -node-name alpha -poll 50ms -log-level warn &
a_pid=$!
wait_healthy "http://127.0.0.1:8188"

echo "== warm up: alpha completes a workload job end to end"
curl -fsS -X POST "$base/v1/workloads/Philosophers" >/dev/null
"$workdir/wolfctl" -addr "$base" upload "$workdir/fig4.wtrc" -wait \
  || { echo "warmup upload failed" >&2; exit 1; }

echo "== freeze alpha while it holds a lease (SIGSTOP sampling, retried)"
frozen=""
for attempt in $(seq 1 25); do
  job_id="$(curl -fsS -X POST --data-binary "@$workdir/jig.wtrc" "$base/v1/traces" \
    | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
  [ -n "$job_id" ] || { echo "upload produced no job id" >&2; exit 1; }
  # Sample alpha rapidly: stop it, read the job state, and either keep
  # it frozen (caught mid-lease) or thaw it and sample again. Stopping
  # before the read guarantees a "running" observation means alpha is
  # frozen holding the lease and cannot complete.
  for _ in $(seq 1 400); do
    kill -STOP "$a_pid"
    state="$(job_field "$job_id" "$base" state)"
    if [ "$state" = "running" ]; then
      # Rule out a completion already in flight when the stop landed.
      sleep 0.3
      state="$(job_field "$job_id" "$base" state)"
      if [ "$state" = "running" ]; then
        frozen="yes"
        break
      fi
    fi
    kill -CONT "$a_pid"
    if [ "$state" = "done" ] || [ "$state" = "failed" ]; then break; fi
    sleep 0.005
  done
  if [ -n "$frozen" ]; then
    echo "   attempt $attempt: alpha frozen holding job $job_id"
    break
  fi
  # Alpha won the race and finished; drain the job and try again.
  for _ in $(seq 1 200); do
    state="$(job_field "$job_id" "$base" state)"
    if [ "$state" = "done" ] || [ "$state" = "failed" ]; then break; fi
    sleep 0.01
  done
done
[ -n "$frozen" ] || { echo "could not freeze alpha mid-job in 25 attempts" >&2; exit 1; }

echo "== start analyzer beta; the lease must expire and the job move over"
"$workdir/wolfd" -addr 127.0.0.1:8189 -role analyzer -coordinator "$base" \
  -node-name beta -poll 50ms -log-level warn &
b_pid=$!
wait_healthy "http://127.0.0.1:8189"

for _ in $(seq 1 300); do
  state="$(job_field "$job_id" "$base" state)"
  [ "$state" = "done" ] && break
  sleep 0.1
done
[ "$state" = "done" ] || { echo "job $job_id never completed after reassignment (state=$state)" >&2; exit 1; }

echo "== the job record shows the redelivery"
curl -fsS "$base/v1/jobs/$job_id" | tee "$workdir/job.json"; echo
grep -q '"attempts": *2' "$workdir/job.json" \
  || { echo "reassigned job does not show 2 attempts" >&2; exit 1; }

echo "== SIGKILL the frozen analyzer; the coordinator declares it lost"
kill -KILL "$a_pid"; wait "$a_pid" 2>/dev/null || true; a_pid=""
for _ in $(seq 1 100); do
  if "$workdir/wolfctl" -addr "$base" nodes | grep -q 'lost'; then break; fi
  sleep 0.1
done
"$workdir/wolfctl" -addr "$base" nodes | tee "$workdir/nodes.out"
grep -q 'alpha	lost' "$workdir/nodes.out" \
  || { echo "alpha not reported lost" >&2; exit 1; }
grep -q 'beta	alive' "$workdir/nodes.out" \
  || { echo "beta not reported alive" >&2; exit 1; }

echo "== beta keeps working after the failure"
"$workdir/wolfctl" -addr "$base" upload "$workdir/fig4.wtrc" -wait \
  || { echo "post-failure upload failed" >&2; exit 1; }

echo "== fleet metrics and events recorded the story"
curl -fsS "$base/metrics" > "$workdir/metrics.out"
for family in wolfd_nodes_registered_total wolfd_nodes_lost_total wolfd_jobs_reassigned_total; do
  grep -q "^$family" "$workdir/metrics.out" \
    || { echo "$family missing from /metrics" >&2; exit 1; }
done
awk '/^wolfd_jobs_reassigned_total/ {exit ($2 >= 1 ? 0 : 1)}' "$workdir/metrics.out" \
  || { echo "no reassignment counted" >&2; exit 1; }
"$workdir/wolfctl" -addr "$base" tail -kind node.lost | grep -q node.lost \
  || { echo "no node.lost event" >&2; exit 1; }
"$workdir/wolfctl" -addr "$base" tail -kind job.reassigned | grep -q job.reassigned \
  || { echo "no job.reassigned event" >&2; exit 1; }

echo "== corpus correctness: fleet defects == single-process defects"
"$workdir/wolfctl" -addr "$base" defects | tail -n +2 | cut -f1,6 | sort -u > "$workdir/fleet.defects"
[ -s "$workdir/fleet.defects" ] || { echo "fleet corpus is empty" >&2; exit 1; }

single_addr="127.0.0.1:8190"
"$workdir/wolfd" -addr "$single_addr" -data-dir "$workdir/single" -log-level warn &
single_pid=$!
wait_healthy "http://$single_addr"
curl -fsS -X POST "http://$single_addr/v1/workloads/Philosophers" >/dev/null
"$workdir/wolfctl" -addr "http://$single_addr" upload "$workdir/fig4.wtrc" -wait >/dev/null
"$workdir/wolfctl" -addr "http://$single_addr" upload "$workdir/jig.wtrc" -wait >/dev/null
# Drain the workload job too before comparing.
for _ in $(seq 1 300); do
  "$workdir/wolfctl" -addr "http://$single_addr" jobs -state queued | grep -q . || \
  "$workdir/wolfctl" -addr "http://$single_addr" jobs -state running | grep -q . || break
  sleep 0.1
done
"$workdir/wolfctl" -addr "http://$single_addr" defects | tail -n +2 | cut -f1,6 | sort -u > "$workdir/single.defects"

diff -u "$workdir/single.defects" "$workdir/fleet.defects" \
  || { echo "fleet corpus diverges from the single-process corpus" >&2; exit 1; }

echo "== fleet smoke OK"
