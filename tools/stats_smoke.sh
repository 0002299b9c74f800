#!/usr/bin/env bash
# stats_smoke.sh HARTD_BIN LOADGEN_BIN
#
# The HARTscope observability smoke. Six checks:
#   1. In-process: `loadgen --inproc --stats-out` — the scraped
#      hartd_ops_total must equal the loadgen's acked op count, and the
#      PM-event counters (pm_persist_calls_total, hartd_epochs_total)
#      must be non-zero after a write burst.
#   2. Trace export: `--trace-out` must produce parseable chrome://tracing
#      JSON with a non-empty traceEvents array.
#   3. Over TCP: hartd `--stats-dump 1` must print periodic dumps, the
#      STATS op must work over the wire, and pm_persist_calls_total must
#      be monotonic across successive dumps.
#   4. Exposition lint: every scraped snapshot must be clean Prometheus
#      text — unique series, a # TYPE line per base name, no NaN/Inf.
#   5. Stitched tracing: a client->primary->follower run with sampling on
#      must leave the SAME trace ids in all three processes' trace JSON
#      (client spans, server stage spans, follower apply spans).
#   6. Duration mode: a preload that outlasts --seconds must still be
#      followed by a measured run (--seconds bounds the run, not set-up).
# Run by ctest (stats_smoke) and the CI smoke job.
set -euo pipefail

HARTD=${1:?usage: stats_smoke.sh HARTD LOADGEN}
LOADGEN=${2:?usage: stats_smoke.sh HARTD LOADGEN}

DIR=$(mktemp -d "${TMPDIR:-/tmp}/hart_stats_smoke.XXXXXX")
SRV=
SRV2=
cleanup() {
  [ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null || true
  [ -n "$SRV2" ] && kill -9 "$SRV2" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

# metric FILE NAME -> prints the (last) value of NAME in FILE, or 0.
metric() {
  awk -v name="$2" '$1 == name { v = $2 } END { print v + 0 }' "$1"
}

echo "== phase 1: in-proc run, STATS totals must match acked ops"
"$LOADGEN" --inproc --clients 2 --ops 2000 --mix insert --pipeline 16 \
           --stats-out "$DIR/stats.txt" --trace-out "$DIR/trace.json" \
           | tee "$DIR/loadgen.out"

ACKED=$(grep -oE '[0-9]+ acked' "$DIR/loadgen.out" | head -1 | cut -d' ' -f1)
OPS=$(metric "$DIR/stats.txt" 'hartd_ops_total')
if [ "$ACKED" != "$OPS" ] || [ "$ACKED" -eq 0 ]; then
  echo "FAIL: loadgen acked $ACKED ops but hartd_ops_total is $OPS"
  exit 1
fi
echo "   hartd_ops_total == $ACKED acked ops"

PERSISTS=$(metric "$DIR/stats.txt" 'pm_persist_calls_total')
EPOCHS=$(metric "$DIR/stats.txt" 'hartd_epochs_total')
if [ "$PERSISTS" -eq 0 ] || [ "$EPOCHS" -eq 0 ]; then
  echo "FAIL: PM counters empty after a write burst" \
       "(persist_calls=$PERSISTS epochs=$EPOCHS)"
  exit 1
fi
echo "   pm_persist_calls_total=$PERSISTS hartd_epochs_total=$EPOCHS"

echo "== phase 2: trace export must be valid chrome://tracing JSON"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$DIR/trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "traceEvents is empty"
for ev in events:
    assert ev["ph"] in ("X", "i"), f"bad phase {ev['ph']!r}"
    assert "ts" in ev and "name" in ev
print(f"   {len(events)} trace events, JSON OK")
EOF
else
  grep -q '"traceEvents"' "$DIR/trace.json" &&
    grep -q '"ph"' "$DIR/trace.json" ||
    { echo "FAIL: trace.json missing traceEvents"; exit 1; }
  echo "   trace.json present (python3 unavailable, shallow check)"
fi

echo "== phase 3: TCP --stats-dump is periodic and monotonic"
"$HARTD" --port 0 --port-file "$DIR/port" --shards 2 --batch 16 \
         --stats-dump 1 > "$DIR/hartd.out" &
SRV=$!
for _ in $(seq 100); do
  [ -s "$DIR/port" ] && break
  kill -0 "$SRV" 2>/dev/null || { echo "FAIL: hartd died at startup"; exit 1; }
  sleep 0.1
done
PORT=$(cat "$DIR/port")

"$LOADGEN" --port "$PORT" --clients 2 --ops 1000 --mix insert \
           --stats-out "$DIR/stats_tcp.txt" | tee "$DIR/loadgen_tcp.out"
ACKED_TCP=$(grep -oE '[0-9]+ acked' "$DIR/loadgen_tcp.out" | head -1 |
            cut -d' ' -f1)
OPS_TCP=$(metric "$DIR/stats_tcp.txt" 'hartd_ops_total')
if [ "$ACKED_TCP" != "$OPS_TCP" ] || [ "$ACKED_TCP" -eq 0 ]; then
  echo "FAIL: STATS over TCP reports $OPS_TCP ops, loadgen acked $ACKED_TCP"
  exit 1
fi
echo "   STATS op over TCP: hartd_ops_total == $ACKED_TCP acked ops"

sleep 2.5   # let at least two periodic dumps land
kill -TERM "$SRV"
wait "$SRV"
SRV=

DUMPS=$(grep -c '^# hartd stats dump' "$DIR/hartd.out")
if [ "$DUMPS" -lt 2 ]; then
  echo "FAIL: expected >=2 periodic stats dumps, saw $DUMPS"
  exit 1
fi
# pm_persist_calls_total must never decrease across dumps.
awk '$1 == "pm_persist_calls_total" {
       if ($2 + 0 < prev) { print "FAIL: persist counter went backwards"; exit 1 }
       prev = $2 + 0; n++
     }
     END { if (n < 2) { print "FAIL: persist counter missing from dumps"; exit 1 } }' \
    "$DIR/hartd.out"
echo "   $DUMPS dumps, pm_persist_calls_total monotonic"

echo "== phase 4: Prometheus exposition lint over every scraped snapshot"
lint_exposition() {
  # Unique series (name + labels), a # TYPE line per base name (summaries
  # contribute _count/_sum children of their base), no NaN/Inf values.
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$1" <<'EOF'
import math, sys
series, typed = {}, set()
with open(sys.argv[1]) as f:
    for ln, line in enumerate(f, 1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 3 and parts[1] == "TYPE":
                typed.add(parts[2])
            continue
        key, _, val = line.rpartition(" ")
        assert key, f"line {ln}: no metric name"
        v = float(val)
        assert math.isfinite(v), f"line {ln}: non-finite value {val} for {key}"
        assert key not in series, f"line {ln}: duplicate series {key!r}"
        series[key] = v
        base = key.split("{", 1)[0]
        for suffix in ("_count", "_sum"):
            if base.endswith(suffix) and base[: -len(suffix)] in typed:
                base = base[: -len(suffix)]
        assert base in typed, f"line {ln}: {base} has no # TYPE line"
print(f"   {len(series)} unique series, {len(typed)} typed names, all finite")
EOF
  else
    # Shallow fallback: duplicates and NaN/Inf only.
    DUP=$(grep -v '^#' "$1" | grep -v '^$' | sed 's/ [^ ]*$//' |
          sort | uniq -d | head -1)
    [ -z "$DUP" ] || { echo "FAIL: duplicate series $DUP in $1"; exit 1; }
    ! grep -qiE ' (nan|inf)$' "$1" ||
      { echo "FAIL: non-finite sample in $1"; exit 1; }
    echo "   $1 lint OK (python3 unavailable, shallow check)"
  fi
}
lint_exposition "$DIR/stats.txt"
lint_exposition "$DIR/stats_tcp.txt"

echo "== phase 5: stitched client->primary->follower trace schema"
"$HARTD" --port 0 --port-file "$DIR/fport" --shards 2 --batch 8 --follow \
         --trace-out "$DIR/trace_follower.json" > "$DIR/hartd_f.out" &
SRV2=$!
for _ in $(seq 100); do
  [ -s "$DIR/fport" ] && break
  kill -0 "$SRV2" 2>/dev/null || { echo "FAIL: follower died at startup"; exit 1; }
  sleep 0.1
done
FPORT=$(cat "$DIR/fport")

"$HARTD" --port 0 --port-file "$DIR/pport" --shards 2 --batch 8 \
         --replicate-to "127.0.0.1:$FPORT" --ack-policy quorum \
         --trace-out "$DIR/trace_primary.json" > "$DIR/hartd_p.out" &
SRV=$!
for _ in $(seq 100); do
  [ -s "$DIR/pport" ] && break
  kill -0 "$SRV" 2>/dev/null || { echo "FAIL: primary died at startup"; exit 1; }
  sleep 0.1
done
PPORT=$(cat "$DIR/pport")

# Client-side sampling stamps every request; daemons only need their
# tracers armed (--trace-out) to record the propagated spans.
"$LOADGEN" --port "$PPORT" --clients 1 --ops 300 --mix insert --pipeline 8 \
           --trace-sample 1 --trace-out "$DIR/trace_client.json" \
           > "$DIR/loadgen_trace.out"

# Graceful shutdown writes each daemon's trace JSON.
kill -TERM "$SRV" && wait "$SRV" && SRV=
kill -TERM "$SRV2" && wait "$SRV2" && SRV2=

if command -v python3 >/dev/null 2>&1; then
  python3 - "$DIR/trace_client.json" "$DIR/trace_primary.json" \
            "$DIR/trace_follower.json" <<'EOF'
import json, sys

def spans(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}  # trace id (hex string) -> set of span names
    for ev in doc["traceEvents"]:
        tid = ev.get("args", {}).get("trace")
        if tid:
            out.setdefault(tid, set()).add(ev["name"])
    return out

client, primary, follower = map(spans, sys.argv[1:4])
assert client, "client trace has no trace-id-stamped events"
assert any("client" in names for names in client.values()), \
    "client trace missing 'client' spans"

stitched_p = {t for t in client
              if primary.get(t, set()) & {"queue_wait", "fence", "shard_apply"}}
assert stitched_p, "no client trace id reappears in the primary's stage spans"
stitched_f = {t for t in client if "follower_apply" in follower.get(t, set())}
assert stitched_f, "no client trace id reappears in the follower's apply spans"
print(f"   {len(client)} client traces; {len(stitched_p)} stitched to primary,"
      f" {len(stitched_f)} to follower")
EOF
else
  grep -q '"client"' "$DIR/trace_client.json" &&
    grep -q '"trace"' "$DIR/trace_client.json" &&
    grep -q '"follower_apply"' "$DIR/trace_follower.json" ||
    { echo "FAIL: stitched trace spans missing"; exit 1; }
  echo "   stitched trace present (python3 unavailable, shallow check)"
fi

echo "== phase 6: --seconds starts after the preload"
# 40k synchronous preload puts take several times the 0.05 s run.
"$LOADGEN" --inproc --clients 1 --mix read-intensive --preload 40000 \
           --seconds 0.05 > "$DIR/loadgen_timed.out"
RAN=$(grep -oE '[0-9]+ acked, [0-9]+ miss' "$DIR/loadgen_timed.out" |
      head -1 | awk '{ print $1 + $3 }')
if [ "${RAN:-0}" -eq 0 ]; then
  echo "FAIL: a preload longer than --seconds left no time for the run"
  cat "$DIR/loadgen_timed.out"
  exit 1
fi
echo "   $RAN ops ran after a 40k-key preload"

echo "PASS: stats/trace smoke OK"
