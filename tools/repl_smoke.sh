#!/usr/bin/env bash
# repl_smoke.sh HARTD_BIN LOADGEN_BIN [SECONDS]
#
# The hartrepl failover smoke (DESIGN.md §9). Three phases:
#
#  phase 1 — quorum ack policy, primary SIGKILL:
#    start a follower and a primary replicating to it with
#    --ack-policy quorum, drive an insert burst recording every acked key,
#    SIGKILL the primary mid-burst (no drain), PROMOTE the follower, and
#    replay the acked set against it. Because a quorum ack is only
#    released after the follower confirmed the batch's fence, ZERO acked
#    writes may be missing — this is the subsystem's correctness oracle.
#    The follower's scrape must also show nonzero
#    hartd_repl_batches_applied_total (the stream really ran).
#
#  phase 2 — local ack policy, graceful handover:
#    same topology with --ack-policy local; SIGTERM the primary (graceful
#    shutdown drains the replication tail), promote, replay. Local policy
#    only guarantees durability across a *graceful* exit.
#
#  phase 3 — quorum acks across a replication-log gap:
#    the primary retains only 2 wire batches per stream with a window of
#    1 (--repl-log 2 --repl-window 1). The follower is SIGSTOPped for
#    2.5 s mid-burst, so the bounded log evicts batches it never got and
#    its link jumps the gap on SIGCONT. Then the primary is SIGKILLed and
#    the follower promoted: every quorum-acked key must still be there
#    (acks of skipped batches are failed, never released by a later
#    confirm), and the primary's log must show the gap was reached.
#
#  Phases 1 and 2 first run a warm-up burst and require the
#  replication-lag health gauges (hartd_repl_lag_seq / _lag_bytes /
#  _last_confirm_age_ms) to converge to zero on both roles before the
#  killed burst starts.
#
# Run by ctest (repl_smoke, 2 s) and by the CI repl-smoke job (5 s).
set -euo pipefail

HARTD=${1:?usage: repl_smoke.sh HARTD LOADGEN [SECONDS]}
LOADGEN=${2:?usage: repl_smoke.sh HARTD LOADGEN [SECONDS]}
SECS=${3:-5}

DIR=$(mktemp -d "${TMPDIR:-/tmp}/hart_repl_smoke.XXXXXX")
PRI=
FOL=
LG=
cleanup() {
  [ -n "$PRI" ] && kill -9 "$PRI" 2>/dev/null || true
  [ -n "$FOL" ] && kill -9 "$FOL" 2>/dev/null || true
  [ -n "$LG" ] && kill "$LG" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

wait_port() { # $1 = port file, $2 = pid, $3 = name
  for _ in $(seq 100); do
    [ -s "$1" ] && return 0
    kill -0 "$2" 2>/dev/null || { echo "FAIL: $3 died at startup"; exit 1; }
    sleep 0.1
  done
  echo "FAIL: $3 never published its port"
  exit 1
}

start_follower() { # $1 = phase tag
  rm -f "$DIR/fport"
  "$HARTD" --port 0 --port-file "$DIR/fport" --shards 4 --batch 32 \
           --arena-mb 64 --follow > "$DIR/follower-$1.log" 2>&1 &
  FOL=$!
  wait_port "$DIR/fport" "$FOL" follower
  FPORT=$(cat "$DIR/fport")
}

start_primary() { # $1 = ack policy, $2 = phase tag, $3... = extra flags
  rm -f "$DIR/pport"
  "$HARTD" --port 0 --port-file "$DIR/pport" --shards 4 --batch 32 \
           --arena-mb 64 --replicate-to "127.0.0.1:$FPORT" \
           --ack-policy "$1" "${@:3}" > "$DIR/primary-$2.log" 2>&1 &
  PRI=$!
  wait_port "$DIR/pport" "$PRI" primary
  PPORT=$(cat "$DIR/pport")
}

# After a quiesced burst every replication lag gauge must read zero on
# both roles — the health gauges' "caught up" contract (DESIGN.md §12).
wait_lag_drained() { # $1 = port, $2 = role name
  for _ in $(seq 100); do
    if "$LOADGEN" --port "$1" --stats-only --stats-out "$DIR/lag.prom" \
                  > /dev/null 2>&1; then
      LAG_SEQ=$(awk '$1 == "hartd_repl_lag_seq" {print $2}' "$DIR/lag.prom")
      LAG_BYTES=$(awk '$1 == "hartd_repl_lag_bytes" {print $2}' "$DIR/lag.prom")
      LAG_AGE=$(awk '$1 == "hartd_repl_last_confirm_age_ms" {print $2}' \
                    "$DIR/lag.prom")
      if [ "${LAG_SEQ:-x}" = "0" ] && [ "${LAG_BYTES:-x}" = "0" ] &&
         [ "${LAG_AGE:-x}" = "0" ]; then
        return 0
      fi
    fi
    sleep 0.1
  done
  echo "FAIL: $2 lag gauges never drained to zero" \
       "(lag_seq=${LAG_SEQ:-?} lag_bytes=${LAG_BYTES:-?} age_ms=${LAG_AGE:-?})"
  exit 1
}

run_phase() { # $1 = ack policy, $2 = kill signal (KILL|TERM), $3 = tag
  start_follower "$3"
  start_primary "$1" "$3"
  echo "   follower :$FPORT  primary :$PPORT  (ack-policy $1)"

  # Warm-up burst, then the lag gauges on BOTH roles must converge to zero
  # before the real (killed) burst starts.
  "$LOADGEN" --port "$PPORT" --clients 2 --ops 1000 --mix insert \
             --pipeline 16 > /dev/null
  wait_lag_drained "$PPORT" primary
  wait_lag_drained "$FPORT" follower
  echo "   warm-up drained: repl lag gauges at zero on both roles"

  rm -f "$DIR/acked-$3.log"
  "$LOADGEN" --port "$PPORT" --clients 4 --seconds "$SECS" --mix insert \
             --pipeline 32 --acked-log "$DIR/acked-$3.log" &
  LG=$!

  # Take the primary down mid-burst. KILL = crash (no drain): only quorum
  # acks survive by construction. TERM = graceful: shutdown drains the
  # replication tail first, so local acks must survive too.
  sleep "$(awk "BEGIN{print $SECS/2}")"
  kill "-$2" "$PRI"
  wait "$PRI" 2>/dev/null || true
  PRI=
  wait "$LG" || true   # loadgen tolerates the dead connection
  LG=

  ACKED=$(wc -l < "$DIR/acked-$3.log")
  if [ "$ACKED" -lt 100 ]; then
    echo "FAIL: only $ACKED acked inserts before the $2 — burst too small"
    exit 1
  fi
  echo "   $ACKED acked inserts at SIG$2"

  # Failover: the follower becomes primary (tail replay of everything the
  # replication stream already delivered), then must hold every acked key.
  if ! "$LOADGEN" --port "$FPORT" --promote; then
    echo "FAIL: promote failed"
    exit 1
  fi
  if ! "$LOADGEN" --port "$FPORT" --verify-acked "$DIR/acked-$3.log" \
                  --stats-out "$DIR/stats-$3.prom"; then
    echo "FAIL: acked-write replay on the promoted follower failed ($3)"
    sed -n '1,40p' "$DIR/follower-$3.log" || true
    exit 1
  fi

  # The oracle only means something if replication actually carried the
  # data: the promoted follower must report applied batches, and its role
  # gauge must read primary (0) after the promote.
  APPLIED=$(awk '/^hartd_repl_batches_applied_total/ {print $2}' \
                "$DIR/stats-$3.prom")
  ROLE=$(awk '/^hartd_repl_role/ {print $2}' "$DIR/stats-$3.prom")
  if [ -z "$APPLIED" ] || [ "$APPLIED" -eq 0 ]; then
    echo "FAIL: follower shows no applied replication batches"
    exit 1
  fi
  if [ "$ROLE" != "0" ]; then
    echo "FAIL: promoted follower still reports role $ROLE"
    exit 1
  fi
  echo "   follower applied $APPLIED replication batches, role=primary"

  kill -TERM "$FOL"
  wait "$FOL" 2>/dev/null || true
  FOL=
}

echo "== phase 1: quorum acks, SIGKILL primary mid-burst, promote, verify"
run_phase quorum KILL q
echo "== phase 2: local acks, graceful SIGTERM handover, promote, verify"
run_phase local TERM l

echo "== phase 3: quorum acks across a log gap (--repl-log 2), SIGSTOP" \
     "follower, SIGKILL primary, promote, verify"
start_follower g
start_primary quorum g --repl-log 2 --repl-window 1
echo "   follower :$FPORT  primary :$PPORT  (ack-policy quorum, log 2)"
"$LOADGEN" --port "$PPORT" --clients 4 --seconds "$((SECS + 4))" \
           --mix insert --pipeline 32 --acked-log "$DIR/acked-g.log" &
LG=$!
sleep 0.5
kill -STOP "$FOL"
sleep 2.5
kill -CONT "$FOL"
sleep "$SECS"
kill -KILL "$PRI"
wait "$PRI" 2>/dev/null || true
PRI=
wait "$LG" || true
LG=
ACKED=$(wc -l < "$DIR/acked-g.log")
if ! grep -q "bounded log overrun" "$DIR/primary-g.log"; then
  echo "FAIL: the follower's link never hit a log gap — the phase did" \
       "not reach the retention boundary"
  exit 1
fi
echo "   $ACKED acked inserts at SIGKILL; the follower's link jumped a gap"
if ! "$LOADGEN" --port "$FPORT" --promote; then
  echo "FAIL: promote failed"
  exit 1
fi
if ! "$LOADGEN" --port "$FPORT" --verify-acked "$DIR/acked-g.log"; then
  echo "FAIL: quorum-acked writes lost across the replication-log gap"
  exit 1
fi
kill -TERM "$FOL"
wait "$FOL" 2>/dev/null || true
FOL=
echo "PASS: failover preserved every acked write under both ack policies" \
     "and across a replication-log gap"
