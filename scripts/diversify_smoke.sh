#!/usr/bin/env bash
# Diversifier-suite smoke test: the weightless-diversifier serving path
# through the real binaries, end to end —
#
#   1. train one tiny RAPID model and publish it (rapidtrain -publish),
#   2. publish all four classic diversifiers as weightless versions copying
#      the model's geometry (rapidserve -publish-diversifier),
#   3. serve the store (rapidserve -model-root): the RAPID version activates
#      ("div-*" labels sort before "v*" timestamps),
#   4. for each diversifier: stage it as the canary candidate, drive varied
#      /v1/rerank traffic, and assert (a) some responses are served by the
#      diversifier version, (b) its rapid_diversifier_* series counts them,
#      (c) shadow comparison against the active RAPID model ran; then abort
#      the candidate and move to the next.
#
# Run from the repo root: ./scripts/diversify_smoke.sh
set -euo pipefail

WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    [ -n "$SERVE_PID" ] && wait "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

STORE="$WORK/models"
ADDR="127.0.0.1:18082"
TOKEN="smoke-admin-token"

echo "== build"
go build -o "$WORK/rapidtrain" ./cmd/rapidtrain
go build -o "$WORK/rapidserve" ./cmd/rapidserve

echo "== train and publish the RAPID baseline version"
"$WORK/rapidtrain" -dataset taobao -scale 0.02 -seed 1 -out "$WORK/m1.gob" -publish "$STORE" 2>&1 | tail -2

echo "== publish the four diversifiers as weightless versions"
for NAME in mmr dpp bswap window; do
    "$WORK/rapidserve" -model-root "$STORE" -publish-diversifier "$NAME" \
        -diversifier-lambda 0.5 2>&1 | tail -1
done

echo "== serve the store"
"$WORK/rapidserve" -model-root "$STORE" -addr "$ADDR" -admin-token "$TOKEN" \
    -canary-pct 50 -shadow &
SERVE_PID=$!

for _ in $(seq 1 100); do
    curl -fs "http://$ADDR/readyz" >/dev/null 2>&1 && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "FAIL: rapidserve died on startup"; exit 1; }
    sleep 0.2
done
curl -fs "http://$ADDR/readyz" >/dev/null || { echo "FAIL: server never became ready"; exit 1; }

admin() { # admin METHOD PATH [BODY]
    local method="$1" path="$2" body="${3:-}"
    curl -fs -X "$method" -H "Authorization: Bearer $TOKEN" \
        ${body:+-d "$body"} "http://$ADDR$path"
}

LIST="$(admin GET /admin/models)"
grep -qE '"version":"v[^"]*","state":"active"' <<<"$LIST" \
    || { echo "FAIL: RAPID version is not active at startup: $LIST"; exit 1; }

# Build rerank bodies from the published manifest geometry. The first
# user-feature entry varies per request so the user key (engine.UserKey) —
# and with it the 50% canary split — varies too; the items never move it.
MANIFEST_JSON="$(find "$STORE" -name '*.json' | sort | tail -1)"
dim() { grep -o "\"$1\": *[0-9]*" "$MANIFEST_JSON" | head -1 | grep -o '[0-9]*$'; }
UD="$(dim UserDim)"; ID_="$(dim ItemDim)"; TP="$(dim Topics)"
[ -n "$UD" ] && [ -n "$ID_" ] && [ -n "$TP" ] \
    || { echo "FAIL: could not read dims from $MANIFEST_JSON"; exit 1; }
vec() { # vec N -> [0.1,0.2,...] with N entries
    local n="$1" out="" i
    for ((i = 0; i < n; i++)); do out="${out}${out:+,}0.$((i % 9 + 1))"; done
    echo "[$out]"
}
IF="$(vec "$ID_")"; CV="$(vec "$TP")"
SEQ="[{\"features\":$IF},{\"features\":$IF}]"
SEQS="$SEQ"
for ((i = 1; i < TP; i++)); do SEQS="$SEQS,$SEQ"; done
ITEMS=""
for ((i = 0; i < 6; i++)); do
    ITEMS="${ITEMS}${ITEMS:+,}{\"id\":$i,\"features\":$IF,\"cover\":$CV,\"init_score\":0.$((i + 1))}"
done
rerank() { # rerank SALT -> response JSON; SALT varies the user key
    local salt="$1" i uf
    uf="[0.$salt"
    for ((i = 1; i < UD; i++)); do uf="$uf,0.$((i % 9 + 1))"; done
    uf="$uf]"
    curl -fs -X POST -H 'Content-Type: application/json' \
        -d "{\"user_features\":$uf,\"items\":[$ITEMS],\"topic_sequences\":[$SEQS]}" \
        "http://$ADDR/v1/rerank"
}
metric() { awk -v m="$1" '$1 == m {print $2}' <<<"$2"; }
ge1() { awk -v v="${1:-0}" 'BEGIN { exit !(v >= 1) }'; }

for NAME in mmr dpp bswap window; do
    echo "== canary div-$NAME behind /v1/rerank"
    admin POST /admin/models/load "{\"version\":\"div-$NAME\"}" >/dev/null
    HIT=0
    for SALT in $(seq 1 24); do
        R="$(rerank "$SALT")"
        grep -q '"ranked":\[' <<<"$R" || { echo "FAIL: bad rerank response: $R"; exit 1; }
        grep -q "\"model_version\":\"div-$NAME\"" <<<"$R" && HIT=1
    done
    [ "$HIT" = 1 ] || { echo "FAIL: no response was served by div-$NAME at 50% canary"; exit 1; }
    METRICS="$(curl -fs "http://$ADDR/metrics")"
    ge1 "$(metric "rapid_diversifier_requests_total{diversifier=\"$NAME\"}" "$METRICS")" \
        || { echo "FAIL: rapid_diversifier_requests_total{diversifier=\"$NAME\"} never incremented"; exit 1; }
    ge1 "$(metric "rapid_diversifier_items_total{diversifier=\"$NAME\"}" "$METRICS")" \
        || { echo "FAIL: rapid_diversifier_items_total{diversifier=\"$NAME\"} never incremented"; exit 1; }
    admin POST /admin/models/rollback >/dev/null
done

echo "== shadow comparison against the active RAPID model ran"
METRICS="$(curl -fs "http://$ADDR/metrics")"
ge1 "$(metric rapid_shadow_scored_total "$METRICS")" \
    || { echo "FAIL: no shadow comparison was recorded"; exit 1; }

echo "PASS: diversifier suite smoke"
