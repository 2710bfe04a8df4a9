#!/usr/bin/env bash
# Observability smoke test: start a real server, ingest through the drop
# folder, run a traced federated-path query, then assert that /metrics and
# /healthz answer well-formed with nonzero counters. Exercises the full
# wiring (CLI -> facade -> registry -> exposition) that unit tests stub.
#
# Also covers distributed tracing end to end: a second instance is started
# as a remote databank source, and the script asserts that one trace id
# spans both processes (X-Netmark-Trace-Id on the mediator == a retained
# trace on the remote), that /traces serves the stitched tree, that
# /metrics carries at least one histogram exemplar, and that the
# `netmark traces` CLI renders the flame view.
#
# Both instances run with an explicit `[server] reactor = epoll` config, so
# the whole mediator+remote topology is exercised through the epoll reactor
# (the INI knob path included), and the scrape asserts the reactor gauges
# (netmark_http_server_open_connections, _epoll_wakeups_total) are exported.
#
# Usage: tools/smoke_observability.sh [path/to/netmark] [port]
set -euo pipefail

BIN="${1:-./build/tools/netmark}"
PORT="${2:-18099}"
REMOTE_PORT="$((PORT + 1))"
BASE="http://127.0.0.1:${PORT}"
REMOTE_BASE="http://127.0.0.1:${REMOTE_PORT}"
WORK="$(mktemp -d)"
SERVER_PID=""
REMOTE_PID=""

cleanup() {
  [[ -n "${SERVER_PID}" ]] && kill "${SERVER_PID}" 2>/dev/null || true
  [[ -n "${SERVER_PID}" ]] && wait "${SERVER_PID}" 2>/dev/null || true
  [[ -n "${REMOTE_PID}" ]] && kill "${REMOTE_PID}" 2>/dev/null || true
  [[ -n "${REMOTE_PID}" ]] && wait "${REMOTE_PID}" 2>/dev/null || true
  rm -rf "${WORK}"
}
trap cleanup EXIT

fail() {
  echo "SMOKE FAIL: $*" >&2
  echo "--- server log ---" >&2
  cat "${WORK}/serve.log" >&2 || true
  echo "--- remote log ---" >&2
  cat "${WORK}/remote.log" >&2 || true
  exit 1
}

mkdir -p "${WORK}/data" "${WORK}/drop" "${WORK}/remote-data" "${WORK}/remote-drop"
printf 'OVERVIEW\nsmoke engine nominal\n' > "${WORK}/drop/memo.txt"
printf 'OVERVIEW\nremote thruster anomaly\n' > "${WORK}/remote-drop/anomaly.txt"

# A non-default [server] key, so the smoke covers the INI plumbing (the
# pool-size gauge is checked below).
cat > "${WORK}/server.ini" <<EOF
[server]
worker_threads = 3
EOF

# Second instance: the remote half of the federated hop.
"${BIN}" serve --data "${WORK}/remote-data" --port "${REMOTE_PORT}" \
  --drop "${WORK}/remote-drop" --config "${WORK}/server.ini" \
  > "${WORK}/remote.log" 2>&1 &
REMOTE_PID=$!

# The mediator reaches it through a declared databank.
cat > "${WORK}/databanks.ini" <<EOF
[source:smoke-remote]
kind = remote
host = 127.0.0.1
port = ${REMOTE_PORT}

[databank:smoke]
sources = smoke-remote
EOF

"${BIN}" serve --data "${WORK}/data" --port "${PORT}" --drop "${WORK}/drop" \
  --databanks "${WORK}/databanks.ini" --config "${WORK}/server.ini" \
  > "${WORK}/serve.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  if curl -fsS "${REMOTE_BASE}/healthz" 2>/dev/null | grep -q '"documents":1'; then
    break
  fi
  sleep 0.2
done

# Wait for the server to come up AND the drop sweep to ingest the memo.
up=""
for _ in $(seq 1 100); do
  if curl -fsS "${BASE}/healthz" > "${WORK}/healthz.json" 2>/dev/null &&
     grep -q '"documents":1' "${WORK}/healthz.json"; then
    up=1
    break
  fi
  sleep 0.2
done
[[ -n "${up}" ]] || fail "server did not ingest the dropped file in time"

echo "== /healthz =="
cat "${WORK}/healthz.json"; echo
grep -q '"status":"ok"' "${WORK}/healthz.json" || fail "healthz status not ok"
grep -q '"running":true' "${WORK}/healthz.json" || fail "daemon not reported running"
grep -q '"inserted":1' "${WORK}/healthz.json" || fail "daemon inserted count wrong"
# MVCC posture (docs/mvcc.md): the ingested document committed, so the epoch
# must be nonzero, and the version-lifecycle block must be present.
grep -q '"mvcc":{"epoch":[1-9]' "${WORK}/healthz.json" ||
  fail "healthz storage.mvcc missing or epoch still zero after ingest"
grep -q '"versions_retained":' "${WORK}/healthz.json" ||
  fail "healthz mvcc missing versions_retained"
grep -q '"oldest_pinned_epoch":' "${WORK}/healthz.json" ||
  fail "healthz mvcc missing oldest_pinned_epoch"
grep -q '"gc_reclaimed_total":' "${WORK}/healthz.json" ||
  fail "healthz mvcc missing gc_reclaimed_total"

echo "== traced query =="
curl -fsSD "${WORK}/query.headers" "${BASE}/xdb?context=Overview&trace=1" \
  > "${WORK}/query.xml" || fail "traced query failed"
cat "${WORK}/query.xml"; echo
grep -q 'smoke engine nominal' "${WORK}/query.xml" || fail "query missing hit content"
grep -q '<trace total_us=' "${WORK}/query.xml" || fail "trace=1 did not append span tree"
grep -q 'name="xdb"' "${WORK}/query.xml" || fail "trace missing root span"
grep -qi '^x-netmark-trace-id: [0-9a-f]\{32\}' "${WORK}/query.headers" ||
  fail "response missing X-Netmark-Trace-Id header"

echo "== cross-hop trace =="
curl -fsSD "${WORK}/fed.headers" \
  "${BASE}/xdb?content=thruster&databank=smoke" > "${WORK}/fed.xml" ||
  fail "federated query failed"
grep -q 'doc="anomaly.txt".*source="smoke-remote"' "${WORK}/fed.xml" ||
  fail "federated query missing remote hit"
TRACE_ID="$(grep -i '^x-netmark-trace-id:' "${WORK}/fed.headers" |
  tr -d '\r' | awk '{print $2}')"
[[ -n "${TRACE_ID}" ]] || fail "federated response missing trace id header"

# The stitched tree on the mediator: remote spans grafted under source:*.
curl -fsS "${BASE}/traces?id=${TRACE_ID}" > "${WORK}/trace.json" ||
  fail "mediator /traces?id= failed"
grep -q '"name":"source:smoke-remote"' "${WORK}/trace.json" ||
  fail "stitched trace missing source span"
grep -q '"remote":true' "${WORK}/trace.json" ||
  fail "stitched trace carries no remote spans"

# Cross-process propagation: the SAME trace id is retained on the remote
# (it adopted the inbound traceparent).
curl -fsS "${REMOTE_BASE}/traces" > "${WORK}/remote-traces.json" ||
  fail "remote /traces failed"
grep -q "${TRACE_ID}" "${WORK}/remote-traces.json" ||
  fail "remote trace store does not hold the mediator's trace id"

echo "== /traces =="
curl -fsS "${BASE}/traces" > "${WORK}/traces.json" || fail "/traces failed"
grep -q '"traces":\[{' "${WORK}/traces.json" || fail "/traces listing is empty"
grep -q '"root":"xdb"' "${WORK}/traces.json" || fail "/traces missing xdb root"

echo "== CLI flame view =="
"${BIN}" traces --port "${PORT}" --id "${TRACE_ID}" > "${WORK}/flame.txt" ||
  fail "netmark traces CLI failed"
cat "${WORK}/flame.txt"
grep -q "trace ${TRACE_ID}" "${WORK}/flame.txt" || fail "flame view missing id"
grep -q 'source:smoke-remote' "${WORK}/flame.txt" ||
  fail "flame view missing source span"
grep -q '\[remote\]' "${WORK}/flame.txt" || fail "flame view missing remote tag"

echo "== /metrics =="
curl -fsSD "${WORK}/metrics.headers" "${BASE}/metrics" > "${WORK}/metrics.txt" ||
  fail "metrics scrape failed"
grep -qi 'content-type: text/plain; version=0.0.4' "${WORK}/metrics.headers" ||
  fail "metrics content type wrong"
# Exposition shape: TYPE lines + the counters this session must have moved.
grep -q '^# TYPE netmark_http_requests_total counter' "${WORK}/metrics.txt" ||
  fail "missing http request counter TYPE line"
grep -q 'netmark_http_requests_total{route="/xdb"} 2' "${WORK}/metrics.txt" ||
  fail "xdb route counter not 2 (traced + federated query)"
grep -q 'netmark_ingest_inserted_total 1' "${WORK}/metrics.txt" ||
  fail "ingest counter not on the instance registry"
grep -q '^# TYPE netmark_query_latency_micros histogram' "${WORK}/metrics.txt" ||
  fail "missing query latency histogram"
grep -q 'netmark_query_latency_micros_count 2' "${WORK}/metrics.txt" ||
  fail "query latency histogram did not observe both queries"
grep -q 'netmark_ingest_prepare_micros_bucket{le="+Inf"} 1' "${WORK}/metrics.txt" ||
  fail "ingestion-stage histogram missing"
grep -q '^netmark_build_info{' "${WORK}/metrics.txt" || fail "missing build info gauge"
grep -q 'netmark_traces_retained_total' "${WORK}/metrics.txt" ||
  fail "missing trace retention counter"
# Reactor observability: the open-connections gauge must be exported and
# count this scrape's own socket; the wakeup counter must have moved.
grep -q '^# TYPE netmark_http_server_open_connections gauge' \
  "${WORK}/metrics.txt" || fail "missing open-connections gauge TYPE line"
grep -q '^netmark_http_server_open_connections [1-9]' "${WORK}/metrics.txt" ||
  fail "open-connections gauge not exported or zero during a live scrape"
grep -q '^netmark_http_server_epoll_wakeups_total [1-9]' "${WORK}/metrics.txt" ||
  fail "epoll wakeup counter not exported or zero"
grep -q '^netmark_http_pool_threads 3$' "${WORK}/metrics.txt" ||
  fail "[server] worker_threads from --config not applied"
# MVCC gauges (docs/mvcc.md): version retention, GC watermark, reclaim work.
grep -q '^netmark_mvcc_versions_retained ' "${WORK}/metrics.txt" ||
  fail "missing netmark_mvcc_versions_retained gauge"
grep -q '^netmark_mvcc_oldest_pinned_epoch [1-9]' "${WORK}/metrics.txt" ||
  fail "mvcc oldest-pinned-epoch gauge missing or zero after ingest"
grep -q '^# TYPE netmark_mvcc_gc_reclaimed_total counter' "${WORK}/metrics.txt" ||
  fail "missing mvcc gc reclaim counter TYPE line"
# Exemplar: at least one latency bucket links to a retained trace id.
grep -q '_bucket{le="[^"]*"} [0-9]* # {trace_id="[0-9a-f]\{32\}"}' \
  "${WORK}/metrics.txt" || fail "no histogram exemplar on /metrics"

echo "SMOKE PASS"
