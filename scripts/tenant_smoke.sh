#!/usr/bin/env bash
# Tenant-churn smoke test: generate a mixed multi-tenant workload
# (beam + diffraction), stream it through lclsmon -tenants with a
# residency cap of 1 — so three tenants are forced through continuous
# hibernate/restore churn — then validate the service surface:
#
#   - /tenantz (prom) passes the exposition lint and carries a
#     tenant="<id>" series for every tenant; the JSON form parses and
#     names them all (obscheck -tenants);
#   - per-tenant engine series (tenant-labeled) coexist with the rest
#     of /metrics without breaking the exposition;
#   - the hibernate/restore churn actually happened (hibernation and
#     restore counters on /metrics are nonzero);
#   - ckptinfo reads the hibernation directory back: every tenant
#     decodes, with the full stream accounted for in its certificate;
#   - a second lclsmon -tenants run over the same directory resumes
#     every hibernated stream (ingest counts double) — restore-on-next-
#     frame across a full process death.
#
# Used by the tenant-smoke CI job; also runnable locally:
#
#   ./scripts/tenant_smoke.sh [port]
set -euo pipefail

cd "$(dirname "$0")/.."
PORT="${1:-9474}"
BASE="http://127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
trap 'kill "${MON_PID:-}" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "== build =="
go build -o "$TMP/lclssim" ./cmd/lclssim
go build -o "$TMP/lclsmon" ./cmd/lclsmon
go build -o "$TMP/obscheck" ./cmd/obscheck
go build -o "$TMP/ckptinfo" ./cmd/ckptinfo

echo "== mixed multi-tenant workload (beam + diffraction) =="
"$TMP/lclssim" -mix amo=beam,cxi=diffraction,mfx=beam \
  -frames 96 -size 24 -out-dir "$TMP/runs"

echo "== lclsmon -tenants (3 tenants, max-resident 1: forced churn) =="
"$TMP/lclsmon" \
  -tenants "amo=$TMP/runs/amo.lcls,cxi=$TMP/runs/cxi.lcls,mfx=$TMP/runs/mfx.lcls" \
  -checkpoint-dir "$TMP/tenants" -tenant-max-resident 1 \
  -shards 2 -listen "127.0.0.1:${PORT}" &
MON_PID=$!

echo "== wait for /healthz =="
for i in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$MON_PID" 2>/dev/null; then
    echo "lclsmon exited before serving" >&2; exit 1
  fi
  sleep 0.2
done

echo "== wait for all streams to hibernate =="
for i in $(seq 1 150); do
  n="$(curl -fsS "$BASE/tenantz?format=prom" | grep -c '^arams_tenantz_state{tenant="[^"]*"} 0$' || true)"
  if [ "$n" -eq 3 ]; then break; fi
  sleep 0.2
done
if [ "${n:-0}" -ne 3 ]; then
  echo "expected 3 hibernated tenants on /tenantz, saw $n" >&2
  curl -fsS "$BASE/tenantz?format=prom" >&2 || true
  exit 1
fi

echo "== obscheck (tenant registry + per-tenant engine series) =="
"$TMP/obscheck" -base "$BASE" \
  -want arams_engine_frames_total,arams_tenant_hibernations_total,arams_tenant_restores_total \
  -tenants amo,cxi,mfx

echo "== residency churn really happened =="
curl -fsS "$BASE/metrics" -o "$TMP/metrics.prom"
hib="$(awk '$1 == "arams_tenant_hibernations_total" {print int($2)}' "$TMP/metrics.prom")"
res="$(awk '$1 == "arams_tenant_restores_total" {print int($2)}' "$TMP/metrics.prom")"
echo "hibernations=$hib restores=$res"
if [ "${hib:-0}" -lt 3 ]; then
  echo "expected >=3 hibernations under max-resident 1, saw ${hib:-0}" >&2; exit 1
fi
if [ "${res:-0}" -lt 1 ]; then
  echo "expected >=1 mid-stream restore under max-resident 1, saw ${res:-0}" >&2; exit 1
fi

kill "$MON_PID"
wait "$MON_PID" 2>/dev/null || true
MON_PID=

echo "== ckptinfo reads the hibernation directory =="
"$TMP/ckptinfo" "$TMP/tenants"
count="$("$TMP/ckptinfo" -json "$TMP/tenants" | grep -c '"ingests": 96')"
if [ "$count" -ne 3 ]; then
  echo "expected 3 tenants with 96 ingests, saw $count" >&2; exit 1
fi

echo "== second run over the same directory: restore across process death =="
"$TMP/lclsmon" \
  -tenants "amo=$TMP/runs/amo.lcls,cxi=$TMP/runs/cxi.lcls,mfx=$TMP/runs/mfx.lcls" \
  -checkpoint-dir "$TMP/tenants" -tenant-max-resident 1 -shards 2
count="$("$TMP/ckptinfo" -json "$TMP/tenants" | grep -c '"ingests": 192')"
if [ "$count" -ne 3 ]; then
  echo "expected 3 tenants resumed to 192 ingests, saw $count" >&2
  "$TMP/ckptinfo" "$TMP/tenants" >&2 || true
  exit 1
fi

echo "tenant smoke: PASS"
