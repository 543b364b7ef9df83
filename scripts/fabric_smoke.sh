#!/usr/bin/env bash
# Fabric smoke test: boot a real two-process worker fleet with
# fabricworker, run lclsmon in -fabric streaming mode against it over
# TCP, kill one worker mid-stream to force the restore+replay recovery
# path, and require the run to finish with an embedding and a final
# checkpoint. The fleet runs with full observability wired up:
#
#   - the coordinator serves /tracez, /fleetz, and a flight recorder;
#     worker 0 serves its own obs endpoints and shares the coordinator's
#     flight dump directory;
#   - obscheck against the coordinator requires a cross-process trace
#     (worker_absorb spans stitched under the coordinator's ingest
#     traces) and a /fleetz exposition carrying coordinator + worker0
#     series that passes the Prometheus lint;
#   - obscheck against worker 0's obs endpoint validates the worker-side
#     exposition and its own /tracez: the worker_absorb spans it ended
#     are that process's roots of the coordinator's traces;
#   - the worker-1 kill degrades its shard, which triggers the
#     coordinator's flight recorder and fans out over the fabric: the
#     script requires correlated dumps — a worker0 dump whose trigger ID
#     matches a coordinator dump — in the shared directory.
#
# Then run the in-process fabric test suites under -race: the
# network-chaos suite (delay, corruption, partition, mid-frame close,
# worker kill/restart), the bit-exact loopback equivalence tests, the
# stop-leak regression, the concurrency hammer, the replay log's bounds,
# the stalled-frame deadline, the cross-process trace-stitch and flight
# fan-out tests, and the oracle's fabric mode (the same faults, each
# checked bit for bit against local shards after every step).
#
# Used by the fabric-smoke CI job; also runnable locally:
#
#   ./scripts/fabric_smoke.sh [port]
set -euo pipefail

cd "$(dirname "$0")/.."
PORT="${1:-9474}"
BASE="http://127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
trap 'kill "${W0_PID:-}" "${W1_PID:-}" "${MON_PID:-}" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "== build =="
go build -o "$TMP/lclssim" ./cmd/lclssim
go build -o "$TMP/lclsmon" ./cmd/lclsmon
go build -o "$TMP/fabricworker" ./cmd/fabricworker
go build -o "$TMP/obscheck" ./cmd/obscheck

echo "== synthetic run =="
# Long enough (2048 frames) that the mid-stream worker kill below lands
# while ingest is still running. The stream can end before the first
# 1 s heartbeat; worker0 is on /fleetz anyway, from the snapshot its
# shard fetches when it is armed.
"$TMP/lclssim" -kind beam -frames 2048 -size 32 -out "$TMP/run.lcls"

echo "== worker fleet (2 processes, ephemeral ports, shared flight dir) =="
"$TMP/fabricworker" -listen 127.0.0.1:0 -addr-file "$TMP/w0.addr" \
  -obs-listen 127.0.0.1:0 -obs-addr-file "$TMP/w0.obs.addr" \
  -flight-dir "$TMP/flight" -flight-id worker0 &
W0_PID=$!
"$TMP/fabricworker" -listen 127.0.0.1:0 -addr-file "$TMP/w1.addr" \
  -flight-dir "$TMP/flight" -flight-id worker1 &
W1_PID=$!
for i in $(seq 1 100); do
  [ -s "$TMP/w0.addr" ] && [ -s "$TMP/w1.addr" ] && [ -s "$TMP/w0.obs.addr" ] && break
  sleep 0.1
done
W0="$(cat "$TMP/w0.addr")"
W1="$(cat "$TMP/w1.addr")"
W0OBS="$(cat "$TMP/w0.obs.addr")"
echo "workers: $W0 $W1 (worker0 obs: $W0OBS)"

echo "== kill worker 1 mid-stream (recovery: degrade keeps coverage, flight fan-out fires) =="
# Keyed off the first checkpoint write rather than a fixed sleep, so the
# kill provably lands while the stream is still running on any machine.
(
  for i in $(seq 1 400); do
    [ -s "$TMP/ckpt/lclsmon.ckpt" ] && break
    sleep 0.05
  done
  kill "$W1_PID" 2>/dev/null || true
) &

echo "== lclsmon -fabric (distributed streaming over TCP, obs server held open) =="
"$TMP/lclsmon" -in "$TMP/run.lcls" -html "$TMP/embedding.html" \
  -checkpoint-dir "$TMP/ckpt" -checkpoint-every 128 -window 128 \
  -listen "127.0.0.1:${PORT}" -flight-dir "$TMP/flight" \
  -fabric "$W0,$W1" &
MON_PID=$!

echo "== wait for coordinator /healthz =="
for i in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$MON_PID" 2>/dev/null; then
    echo "lclsmon exited before serving" >&2; exit 1
  fi
  sleep 0.2
done
curl -fsS "$BASE/healthz" >/dev/null

echo "== wait for the run to finish (embedding + checkpoint) =="
for i in $(seq 1 300); do
  [ -s "$TMP/embedding.html" ] && [ -s "$TMP/ckpt/lclsmon.ckpt" ] && break
  if ! kill -0 "$MON_PID" 2>/dev/null; then
    echo "lclsmon died mid-run" >&2; exit 1
  fi
  sleep 0.2
done
test -s "$TMP/embedding.html" || { echo "no embedding written" >&2; exit 1; }
test -s "$TMP/ckpt/lclsmon.ckpt" || { echo "no final checkpoint" >&2; exit 1; }

echo "== wait for cross-process traces and worker0's fleet snapshot =="
# The coordinator's own arams_fabric_* series carry worker="worker0"
# from the first RPC, so only worker0's liveness gauge proves that its
# snapshot reached the fleet view.
for i in $(seq 1 100); do
  spans="$(curl -fsS "$BASE/tracez?format=json" | grep -c '"name": *"worker_absorb"' || true)"
  fleet="$(curl -fsS "$BASE/fleetz?format=prom" | grep -cF 'arams_fleet_worker_up{worker="worker0"} 1' || true)"
  if [ "$spans" -ge 1 ] && [ "$fleet" -ge 1 ]; then break; fi
  sleep 0.2
done

echo "== obscheck: coordinator (stitched traces + merged fleet view) =="
"$TMP/obscheck" -base "$BASE" \
  -want arams_stage_duration_seconds,arams_engine_frames_total,arams_fabric_worker_uptime_seconds \
  -min-traces 1 -want-spans worker_absorb,fabric_rpc \
  -fleet-workers coordinator,worker0

echo "== obscheck: worker 0 obs endpoint =="
"$TMP/obscheck" -base "http://${W0OBS}" -skip-audit \
  -want arams_fabric_worker_frames_total,arams_fabric_worker_rpc_total \
  -min-traces 1 -want-spans worker_absorb

echo "== correlated flight dumps (coordinator trigger ID on worker dump) =="
WDUMP=""
for i in $(seq 1 100); do
  WDUMP="$(ls "$TMP/flight"/flight-worker0-*.jsonl 2>/dev/null | head -n 1 || true)"
  [ -n "$WDUMP" ] && break
  sleep 0.2
done
test -n "$WDUMP" || { echo "no worker0 flight dump in shared dir" >&2; ls -l "$TMP/flight" >&2 || true; exit 1; }
WID="${WDUMP##*-}"; WID="${WID%.jsonl}"
ls "$TMP/flight"/flight-coordinator-*-"$WID".jsonl >/dev/null 2>&1 || {
  echo "no coordinator dump shares worker0's trigger ID $WID" >&2
  ls -l "$TMP/flight" >&2 || true
  exit 1
}
echo "correlated dumps for trigger $WID:"
ls "$TMP/flight" | sed 's/^/  /'

kill "$MON_PID" 2>/dev/null || true
wait "$MON_PID" 2>/dev/null || true
kill "$W0_PID" 2>/dev/null || true

echo "== fabric suites under -race =="
go test -race -count=1 -v \
  -run 'TestChaos|TestWorkerKillRestart|TestLoopback|TestStopDuringHungReconcile|TestFabricRaceHammer|TestReplayLog|TestCrossProcessTraceStitch|TestFleetFlightFanout|TestWorkerTraced|TestWorkerUntraced|TestWorkerHeartbeatHealthBlock|TestWorkerStatsReq|TestWorkerFlightReq|TestWorkerDropsStalledFrame' \
  ./internal/fabric/
go test -race -count=1 -v -run 'TestOracle/fabric' ./internal/oracle/

echo "== remote merge + wire codec + fleet merge units =="
go test -count=1 -run 'TestMergeRemote|TestClassify' ./internal/parallel/
go test -count=1 -run 'TestWire|TestReadWireFrame|TestPayload|TestHeartbeat|TestTracedReplyWrapper' ./internal/ckpt/ ./internal/fabric/
go test -count=1 -run 'TestFleet' ./internal/obs/

echo "fabric smoke: PASS"
