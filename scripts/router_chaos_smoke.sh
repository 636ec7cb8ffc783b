#!/usr/bin/env bash
# Fleet chaos smoke: the fault-tolerant routing path through the real
# binaries, end to end —
#
#   1. train two tiny models and publish them into two versioned stores,
#   2. serve three registry-mode rapidserve replicas: r0 and r1 on store A,
#      r2 on store B (distinct model version → the router must flag skew);
#      r1 is a 10x-slow node via -chaos-latency,
#   3. front the fleet with two rapidrouters — hedging off and hedging on —
#      and drive open-loop rapidload runs against both,
#   4. during the unhedged run, kill -9 replica r0 mid-load and restart it:
#      every request must still be answered by a healthy replica (zero
#      errors, zero router-synthesized 503s),
#   5. assert the router metrics tell the story: version skew flagged,
#      retries spent, hedges launched and winning, no unavailable responses.
#
# Run from the repo root: ./scripts/router_chaos_smoke.sh
set -euo pipefail

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

STORE_A="$WORK/store-a"
STORE_B="$WORK/store-b"
R0=127.0.0.1:18181
R1=127.0.0.1:18182
R2=127.0.0.1:18183
ROUTER_PLAIN=127.0.0.1:18190
ROUTER_HEDGED=127.0.0.1:18191

echo "== build"
go build -o "$WORK/rapidtrain" ./cmd/rapidtrain
go build -o "$WORK/rapidserve" ./cmd/rapidserve
go build -o "$WORK/rapidrouter" ./cmd/rapidrouter
go build -o "$WORK/rapidload" ./cmd/rapidload

echo "== train and publish two versions into two stores"
"$WORK/rapidtrain" -dataset taobao -scale 0.02 -seed 1 -out "$WORK/m1.gob" -publish "$STORE_A" 2>&1 | tail -1
# Version labels are UTC timestamps to the second, and a store only sees its
# own: two publishes inside one second would give both stores the same label
# and the fleet one version where the skew check below needs two.
sleep 1
"$WORK/rapidtrain" -dataset taobao -scale 0.02 -seed 2 -out "$WORK/m2.gob" -publish "$STORE_B" 2>&1 | tail -1

# start_replica ADDR STORE [extra flags...]
start_replica() {
    local addr="$1" store="$2"; shift 2
    "$WORK/rapidserve" -model-root "$store" -addr "$addr" -budget 2s "$@" \
        >>"$WORK/serve-$addr.log" 2>&1 &
    PIDS+=($!)
    echo $!
}

wait_ready() { # wait_ready ADDR WHAT
    for _ in $(seq 1 150); do
        curl -fs "http://$1/readyz" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "FAIL: $2 never became ready"; exit 1
}

echo "== start fleet: r0, r1 (10x slow) on store A; r2 on store B"
R0_PID="$(start_replica "$R0" "$STORE_A")"
R1_PID="$(start_replica "$R1" "$STORE_A" -chaos-latency 60ms)"
# $(…) ran start_replica in a subshell, where its PIDS+= is lost; without this
# cleanup never sees r0 and r1 and both outlive the script.
PIDS+=("$R0_PID" "$R1_PID")
start_replica "$R2" "$STORE_B" >/dev/null
wait_ready "$R0" "replica r0"
wait_ready "$R1" "replica r1"
wait_ready "$R2" "replica r2"

ROUTER_FLAGS=(-replicas "r0=http://$R0,r1=http://$R1,r2=http://$R2"
    -probe-interval 100ms -probe-ejections 2
    -retries 3 -retry-base 10ms -attempt-timeout 1s)

echo "== start routers (hedging off and on)"
"$WORK/rapidrouter" -addr "$ROUTER_PLAIN" "${ROUTER_FLAGS[@]}" \
    >>"$WORK/router-plain.log" 2>&1 &
PIDS+=($!)
"$WORK/rapidrouter" -addr "$ROUTER_HEDGED" "${ROUTER_FLAGS[@]}" -hedge 25ms \
    >>"$WORK/router-hedged.log" 2>&1 &
PIDS+=($!)
wait_ready "$ROUTER_PLAIN" "plain router"
wait_ready "$ROUTER_HEDGED" "hedged router"

echo "== version skew across stores is flagged"
# Anchored: the skew gauge's HELP line itself contains "version_skew 1".
METRICS="$(curl -fs "http://$ROUTER_PLAIN/metrics")"
grep -q "^rapid_router_version_skew 1" <<<"$METRICS" \
    || { echo "FAIL: distinct store versions not flagged as skew"; exit 1; }
grep -q "^rapid_router_model_versions 2" <<<"$METRICS" \
    || { echo "FAIL: expected 2 distinct model versions"; exit 1; }

LOAD_FLAGS=(-manifest "$WORK/m1.json" -list-len 16 -users 400 -zipf-s 1.2
    -rps 120 -duration 6s -timeout 2s -max-error-rate 0)

echo "== unhedged load with a mid-run kill -9 + restart of r0"
(
    sleep 2
    kill -9 "$R0_PID" 2>/dev/null || true
    sleep 1.5
    "$WORK/rapidserve" -model-root "$STORE_A" -addr "$R0" -budget 2s \
        >>"$WORK/serve-$R0.log" 2>&1 &
    echo $! >"$WORK/r0-restart.pid"
) &
CHAOS_PID=$!
"$WORK/rapidload" -target "http://$ROUTER_PLAIN" "${LOAD_FLAGS[@]}"
wait "$CHAOS_PID"
PIDS+=("$(cat "$WORK/r0-restart.pid")")
wait_ready "$R0" "restarted replica r0"

METRICS="$(curl -fs "http://$ROUTER_PLAIN/metrics")"
grep -Eq 'rapid_router_responses_total\{status="unavailable"\} 0' <<<"$METRICS" \
    || { echo "FAIL: router synthesized 503s despite healthy fallbacks"; exit 1; }
RETRIES="$(grep -o 'rapid_router_retries_total [0-9]*' <<<"$METRICS" | awk '{print $2}')"
[ "${RETRIES:-0}" -gt 0 ] \
    || { echo "FAIL: killing a replica mid-load spent no retries"; exit 1; }

echo "== hedged load against the slow node"
"$WORK/rapidload" -target "http://$ROUTER_HEDGED" "${LOAD_FLAGS[@]}"

METRICS="$(curl -fs "http://$ROUTER_HEDGED/metrics")"
HEDGES="$(grep -o 'rapid_router_hedges_total [0-9]*' <<<"$METRICS" | awk '{print $2}')"
WINS="$(grep -o 'rapid_router_hedge_wins_total [0-9]*' <<<"$METRICS" | awk '{print $2}')"
[ "${HEDGES:-0}" -gt 0 ] || { echo "FAIL: slow node triggered no hedges"; exit 1; }
[ "${WINS:-0}" -gt 0 ] || { echo "FAIL: no hedge ever beat the slow owner"; exit 1; }
grep -Eq 'rapid_router_responses_total\{status="unavailable"\} 0' <<<"$METRICS" \
    || { echo "FAIL: hedged router synthesized 503s"; exit 1; }

echo "PASS: router chaos smoke"
