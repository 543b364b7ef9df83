#!/usr/bin/env bash
# Endpoint smoke test: run lclsmon once without a checkpoint directory
# (the embedding and reachability HTML files must both be written),
# then against the same small synthetic run with the observability
# server, checkpoints, the flight recorder, and 4 shards enabled,
# then validate every endpoint with obscheck — /metrics must parse as
# Prometheus exposition format and expose the wall-time stage
# histograms, /tracez?format=json must round-trip and hold at least
# one fully connected per-batch trace, /audit and /healthz must answer,
# and /fleetz (always mounted, single-member in non-fabric runs) must
# pass the same exposition lint with the coordinator's own series.
#
# Used by the endpoint-smoke CI job; also runnable locally:
#
#   ./scripts/endpoint_smoke.sh [port]
set -euo pipefail

cd "$(dirname "$0")/.."
PORT="${1:-9473}"
BASE="http://127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
trap 'kill "${MON_PID:-}" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "== build =="
go build -o "$TMP/lclssim" ./cmd/lclssim
go build -o "$TMP/lclsmon" ./cmd/lclsmon
go build -o "$TMP/obscheck" ./cmd/obscheck

echo "== synthetic run =="
"$TMP/lclssim" -kind beam -frames 256 -size 32 -out "$TMP/run.lcls"

echo "== lclsmon (no checkpoint dir: embedding + reachability plot) =="
"$TMP/lclsmon" -in "$TMP/run.lcls" -html "$TMP/plain.html" \
  -reach "$TMP/reach.html" -window 128
test -s "$TMP/plain.html" || { echo "no embedding HTML without -checkpoint-dir" >&2; exit 1; }
test -s "$TMP/reach.html" || { echo "no reachability HTML without -checkpoint-dir" >&2; exit 1; }

echo "== lclsmon (4 shards, streaming, flight recorder armed) =="
"$TMP/lclsmon" -in "$TMP/run.lcls" -html "$TMP/embedding.html" \
  -checkpoint-dir "$TMP/ckpt" -checkpoint-every 128 -window 128 \
  -shards 4 -listen "127.0.0.1:${PORT}" \
  -flight-dir "$TMP/flight" -frame-budget 8ms &
MON_PID=$!

echo "== wait for /healthz =="
for i in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$MON_PID" 2>/dev/null; then
    echo "lclsmon exited before serving" >&2; exit 1
  fi
  sleep 0.2
done
curl -fsS "$BASE/healthz" >/dev/null

# Give the stream time to finish so /tracez holds completed ingest
# traces; the run is small, so poll until ingest traces appear.
echo "== wait for retained traces =="
for i in $(seq 1 150); do
  n="$(curl -fsS "$BASE/tracez?format=json" | grep -c '"root": "ingest_batch"' || true)"
  if [ "$n" -ge 1 ]; then break; fi
  sleep 0.2
done

echo "== obscheck =="
# -forbid-labels tenant: a single-tenant run must expose exactly the
# historical unlabeled series — linking the tenant registry into the
# binary must not leak tenant="" labels onto /metrics.
"$TMP/obscheck" -base "$BASE" \
  -want arams_stage_duration_seconds,arams_engine_frames_total \
  -min-traces 1 -fleet-workers coordinator -forbid-labels tenant

echo "== endpoint spot checks =="
# Download before heading: `curl | head` races head's pipe close
# against curl's writes and trips pipefail with exit 23 once the
# exposition outgrows the pipe buffer.
curl -fsS "$BASE/metrics" -o "$TMP/metrics.prom"
head -n 5 "$TMP/metrics.prom"
curl -fsS "$BASE/tracez" >/dev/null
curl -fsS "$BASE/statusz" >/dev/null
curl -fsS "$BASE/metrics.json" >/dev/null
curl -fsS "$BASE/audit" >/dev/null
curl -fsS "$BASE/fleetz" >/dev/null

kill "$MON_PID"
wait "$MON_PID" 2>/dev/null || true
echo "endpoint smoke: PASS"
