#!/usr/bin/env bash
# serve-smoke: end-to-end drill of the m2cd compile daemon.
#
#   1. Start m2cd on an ephemeral port with deliberately small
#      admission capacity and sampled tracing, and confirm
#      healthz/readyz report serving.
#   2. Fetch the first admission's trace (always sampled) through
#      /debug/trace: the daemon validates it before answering 200
#      (ctrace.Trace.Validate), and it must hold a complete span.
#      Check its /profile blame report parses.
#   3. Saturate it with a curl burst at ~4x capacity (60 requests, 8
#      at a time, over 3 client names): every response must be a 200,
#      429 or 503, at least one a 200, and every 200 body
#      byte-identical.  The shed count and the p50/p99 latency are
#      printed.
#   4. Scrape /metrics?format=prometheus and check the exposition:
#      histogram buckets cumulative-monotone, le="+Inf" == _count,
#      and the serving counters moved.
#   5. Send SIGTERM mid-load and verify the graceful drain: healthz
#      flips to "draining", readyz flips to 503 while the listener is
#      still up (the -drain-grace window), in-flight work finishes,
#      the final metrics snapshot is written (every family of the step 4
#      scrape among its keys), and the daemon exits 0.
set -euo pipefail
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
DPID=""
cleanup() {
    [ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }

go build -o "$TMP/m2cd" ./cmd/m2cd

"$TMP/m2cd" -addr 127.0.0.1:0 -ready-file "$TMP/addr" \
    -max-inflight 2 -queue 2 -workers 4 \
    -drain-grace 2s -drain-timeout 10s \
    -trace sampled -trace-sample 4 -trace-keep 16 -quiet \
    -metrics-out "$TMP/metrics.json" 2>"$TMP/m2cd.log" &
DPID=$!

for _ in $(seq 1 100); do [ -s "$TMP/addr" ] && break; sleep 0.1; done
[ -s "$TMP/addr" ] || fail "daemon never wrote its ready file (log: $(cat "$TMP/m2cd.log"))"
ADDR=$(head -n1 "$TMP/addr")

# 1. Liveness and readiness while serving.
[ "$(curl -fsS "http://$ADDR/healthz")" = "ok" ] || fail "healthz != ok"
[ "$(curl -fsS "http://$ADDR/readyz")" = "ready" ] || fail "readyz != ready"

# 2. Request-scoped tracing end to end.  The first admission is always
#    sampled (1-in-N starts at sequence 1), and the client-chosen
#    X-M2cd-Trace header names the trace, so the fetch is deterministic.
python3 - examples/modules > "$TMP/req.json" <<'EOF' || fail "could not build compile request"
import json, pathlib, sys
d = pathlib.Path(sys.argv[1])
srcs = [{"name": p.stem, "kind": p.suffix[1:], "text": p.read_text()}
        for p in (d / n for n in ("Demo.mod", "Fib.def", "Fib.mod"))]
json.dump({"module": "Demo", "sources": srcs, "client": "smoke"}, sys.stdout)
EOF
curl -fsS -X POST -H 'Content-Type: application/json' \
    -H 'X-M2cd-Trace: smoke-trace' --data @"$TMP/req.json" \
    "http://$ADDR/compile" -o /dev/null || fail "traced compile request failed"
curl -fsS "http://$ADDR/debug/trace/smoke-trace" -o "$TMP/trace.json" \
    || fail "sampled trace not retrievable (or not valid) from /debug/trace"
grep -q '"ph": "X"' "$TMP/trace.json" || fail "fetched trace has no complete span"
curl -fsS "http://$ADDR/debug/trace/smoke-trace/profile?format=json" \
    -o "$TMP/blame.json" || fail "trace profile endpoint failed"
python3 - "$TMP/blame.json" <<'EOF' || fail "blame report invalid"
import json, sys
p = json.load(open(sys.argv[1]))
assert "total_blocked_ms" in p and "events" in p, "profile missing blame fields"
EOF

#    A lint request against the concurrency fixture must report its
#    per-family finding counts in the X-M2cd-Findings header and move
#    the m2cd_lint_findings_total counter (checked in step 4).
python3 - examples/modules > "$TMP/lintreq.json" <<'EOF' || fail "could not build lint request"
import json, pathlib, sys
d = pathlib.Path(sys.argv[1])
srcs = [{"name": "ConcFindings", "kind": "mod",
         "text": (d / "ConcFindings.mod").read_text()}]
json.dump({"module": "ConcFindings", "sources": srcs, "client": "smoke"}, sys.stdout)
EOF
curl -fsS -D "$TMP/lint_headers.txt" -X POST -H 'Content-Type: application/json' \
    --data @"$TMP/lintreq.json" "http://$ADDR/lint" -o "$TMP/lint.json" \
    || fail "lint request failed"
grep -qi '^X-M2cd-Findings: conc-deadlock=1,conc-double-lock=1,conc-guard=2' \
    "$TMP/lint_headers.txt" \
    || fail "lint response missing per-family X-M2cd-Findings header: $(grep -i findings "$TMP/lint_headers.txt" || true)"

# 3. Saturating burst: 8 at a time against capacity 4 (2 in flight + 2
#    queued).  Each request leaves its body and its code and time.
python3 - examples/modules > "$TMP/loadreq.json" <<'EOF' || fail "could not build load request"
import json, pathlib, sys
srcs = [{"name": p.stem, "kind": p.suffix[1:], "text": p.read_text()}
        for p in sorted(pathlib.Path(sys.argv[1]).glob("*.*")) if p.suffix in (".def", ".mod")]
json.dump({"module": "Demo", "sources": srcs}, sys.stdout)
EOF
mkdir "$TMP/burst"
seq 1 60 | xargs -P 8 -I{} sh -c 'curl -s -X POST -H "Content-Type: application/json" \
    -H "X-Client: load-$(({} % 3))" --data @"$1/loadreq.json" -o "$1/burst/{}.body" \
    -w "%{http_code} %{time_total}\n" "http://$2/compile" > "$1/burst/{}.code"' _ "$TMP" "$ADDR"
SUMMARY=$(python3 - "$TMP/burst" <<'EOF'
import hashlib, pathlib, sys
codes, ms, bodies = {}, [], set()
for f in pathlib.Path(sys.argv[1]).glob("*.code"):
    code, secs = f.read_text().split()
    codes[code] = codes.get(code, 0) + 1
    if code == "200":
        ms.append(float(secs) * 1000)
        bodies.add(hashlib.sha256(f.with_suffix(".body").read_bytes()).hexdigest())
assert sum(codes.values()) == 60 and set(codes) <= {"200", "429", "503"}, f"codes {codes}"
assert ms, f"no 200 in the burst: {codes}"
assert len(bodies) == 1, f"byte-identity violated: {len(bodies)} distinct 200 bodies"
ms.sort(); pct = lambda q: ms[min(len(ms) - 1, int(q * len(ms)))]
print("%d ok / %d shed / %d unavailable, p50 %.0fms p99 %.0fms" % (
    codes.get("200", 0), codes.get("429", 0), codes.get("503", 0), pct(0.5), pct(0.99)))
EOF
) || fail "burst failed"

# 4. Prometheus exposition: text format, cumulative-monotone histogram
#    buckets, +Inf bucket equal to the count, counters moved.
curl -fsS "http://$ADDR/metrics?format=prometheus" > "$TMP/prom.txt" \
    || fail "prometheus scrape failed"
python3 - "$TMP/prom.txt" <<'EOF' || fail "prometheus exposition invalid"
import re, sys
text = open(sys.argv[1]).read()
assert re.search(r'^m2cd_admitted_total [1-9]', text, re.M), "admitted_total never moved"
assert re.search(r'^m2cd_responses_total\{code="200"\} [1-9]', text, re.M), "no 200s counted"
assert re.search(r'^m2cd_trace_admitted_total [1-9]', text, re.M), "no traces admitted"
assert re.search(r'^m2cd_lint_findings_total\{family="conc-guard"\} [1-9]', text, re.M), \
    "lint findings counter never moved"
assert re.search(r'^m2cd_lint_findings_total\{family="conc-deadlock"\} [1-9]', text, re.M), \
    "deadlock findings counter never moved"
fams = re.findall(r'^# TYPE (\S+) histogram$', text, re.M)
assert "m2cd_request_duration_ms" in fams, "latency histogram family missing"
for fam in fams:
    buckets = [(le, int(v)) for le, v in
               re.findall(r'^%s_bucket\{le="([^"]+)"\} (\d+)$' % fam, text, re.M)]
    assert buckets, f"{fam}: no buckets"
    counts = [v for _, v in buckets]
    assert counts == sorted(counts), f"{fam}: buckets not cumulative-monotone"
    count = int(re.search(r'^%s_count (\d+)$' % fam, text, re.M).group(1))
    inf = dict(buckets)["+Inf"]
    assert inf == count, f"{fam}: +Inf bucket {inf} != count {count}"
EOF

# 5. Graceful drain under load: a background curl loop keeps 4 requests
#    in flight while SIGTERM lands, until the daemon is gone or 4 s pass.
(end=$((SECONDS + 4)); while kill -0 "$DPID" && [ "$SECONDS" -lt "$end" ]; do
    for _ in 1 2 3 4; do curl -s -o /dev/null --data @"$TMP/loadreq.json" "http://$ADDR/compile" & done; wait
done) >/dev/null 2>&1 &
LPID=$!
sleep 0.5
kill -TERM "$DPID"
sleep 0.3  # inside the 2s drain-grace window: probes must still answer
[ "$(curl -fsS "http://$ADDR/healthz")" = "draining" ] || fail "healthz did not flip to draining"
READY_CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/readyz")
[ "$READY_CODE" = "503" ] || fail "readyz during drain returned $READY_CODE, want 503"

wait "$DPID" && DCODE=0 || DCODE=$?
DPID=""
[ "$DCODE" = "0" ] || fail "daemon exit code $DCODE, want 0 (clean drain); log: $(cat "$TMP/m2cd.log")"
wait "$LPID" 2>/dev/null || true

[ -s "$TMP/metrics.json" ] || fail "final metrics snapshot missing"
python3 - "$TMP/metrics.json" "$TMP/prom.txt" <<'EOF' || fail "final metrics snapshot invalid"
import json, re, sys
m = json.load(open(sys.argv[1]))
assert m["m2cd_draining"] == 1, "snapshot not marked draining"
assert m["m2cd_admitted_total"] > 0, "no requests admitted"
for k in ("m2cd_completed_total", "m2cd_shed_queue_full_total",
          "m2cd_deadline_canceled_total", "m2cd_handler_panics_total",
          "m2cd_responses_total", "m2cd_iface_cache_hits_total",
          "m2cd_iface_cache_misses_total", "m2cd_iface_cache_waits_total",
          "m2cd_inflight"):
    assert k in m, f"missing family {k!r}"
# One metrics path: every family the step 4 scrape exposed is a key of
# the drain-time JSON rendering of the same registry.
prom = re.findall(r'^# TYPE (\S+) ', open(sys.argv[2]).read(), re.M)
assert prom, "no families in the prometheus scrape"
missing = [f for f in prom if f not in m]
assert not missing, f"families missing from the final snapshot: {missing}"
EOF

echo "serve-smoke: ok ($SUMMARY)"
