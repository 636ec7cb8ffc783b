#!/usr/bin/env bash
# Lifecycle smoke test: the full model-lifecycle path through the real
# binaries, end to end —
#
#   1. train two tiny models and publish both into a versioned store
#      (rapidtrain -publish),
#   2. serve the store (rapidserve -model-root): the newest version activates,
#   3. load the older version as a canary candidate and promote it through
#      the admin API,
#   4. assert GET /admin/models tracks the lifecycle states and /metrics
#      exposes per-version series for BOTH versions.
#
# Run from the repo root: ./scripts/lifecycle_smoke.sh
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
ADDR="127.0.0.1:18080"
TOKEN="smoke-admin-token"

echo "== build"
go build -o "$WORK/rapidtrain" ./cmd/rapidtrain
go build -o "$WORK/rapidserve" ./cmd/rapidserve

echo "== train and publish two versions"
"$WORK/rapidtrain" -dataset taobao -scale 0.02 -seed 1 -out "$WORK/m1.gob" -publish "$STORE" 2>&1 | tail -2
"$WORK/rapidtrain" -dataset taobao -scale 0.02 -seed 2 -out "$WORK/m2.gob" -publish "$STORE" 2>&1 | tail -2

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

echo "== discover versions"
LIST="$(admin GET /admin/models)"
echo "$LIST"
mapfile -t VERSIONS < <(grep -o '"version":"[^"]*"' <<<"$LIST" | cut -d'"' -f4 | sort -u)
[ "${#VERSIONS[@]}" -eq 2 ] || { echo "FAIL: expected 2 versions, got ${#VERSIONS[@]}"; exit 1; }
OLD="${VERSIONS[0]}"   # published first; the newest auto-activated
NEW="${VERSIONS[1]}"
grep -q "\"version\":\"$NEW\",\"state\":\"active\"" <<<"$LIST" \
    || { echo "FAIL: newest version $NEW is not active at startup"; exit 1; }

echo "== load $OLD as canary candidate"
admin POST /admin/models/load "{\"version\":\"$OLD\"}" >/dev/null
LIST="$(admin GET /admin/models)"
grep -q "\"version\":\"$OLD\",\"state\":\"candidate\"" <<<"$LIST" \
    || { echo "FAIL: $OLD is not the candidate after load"; exit 1; }

echo "== promote $OLD"
admin POST /admin/models/promote "{\"version\":\"$OLD\"}" >/dev/null
LIST="$(admin GET /admin/models)"
grep -q "\"version\":\"$OLD\",\"state\":\"active\"" <<<"$LIST" \
    || { echo "FAIL: $OLD is not active after promote"; exit 1; }
grep -q "\"version\":\"$NEW\",\"state\":\"previous\"" <<<"$LIST" \
    || { echo "FAIL: $NEW is not kept as the rollback target"; exit 1; }

echo "== per-version metrics for both versions"
METRICS="$(curl -fs "http://$ADDR/metrics")"
for v in "$OLD" "$NEW"; do
    grep -q "rapid_model_requests_total{version=\"$v\"}" <<<"$METRICS" \
        || { echo "FAIL: /metrics has no request series for $v"; exit 1; }
    grep -q "rapid_model_request_latency_seconds_bucket{version=\"$v\"" <<<"$METRICS" \
        || { echo "FAIL: /metrics has no latency histogram for $v"; exit 1; }
done
grep -q "rapid_model_promotions_total 1" <<<"$METRICS" \
    || { echo "FAIL: promotion not counted"; exit 1; }

# Build one deterministic rerank body from the published manifest geometry,
# so the encoded-user-state cache (on by default) can be exercised with a
# byte-identical repeat request.
MANIFEST_JSON="$(find "$STORE" -name '*.json' | head -1)"
dim() { grep -o "\"$1\": *[0-9]*" "$MANIFEST_JSON" | head -1 | grep -o '[0-9]*$'; }
UD="$(dim UserDim)"; ID_="$(dim ItemDim)"; TP="$(dim Topics)"
[ -n "$UD" ] && [ -n "$ID_" ] && [ -n "$TP" ] \
    || { echo "FAIL: could not read dims from $MANIFEST_JSON"; exit 1; }
vec() { # vec N -> [0.1,0.2,...] with N entries
    local n="$1" out="" i
    for ((i = 0; i < n; i++)); do out="${out}${out:+,}0.$((i % 9 + 1))"; done
    echo "[$out]"
}
UF="$(vec "$UD")"; IF="$(vec "$ID_")"; CV="$(vec "$TP")"
SEQ="[{\"features\":$IF},{\"features\":$IF}]"
SEQS="$SEQ"
for ((i = 1; i < TP; i++)); do SEQS="$SEQS,$SEQ"; done
ITEMS=""
for ((i = 0; i < 5; i++)); do
    ITEMS="${ITEMS}${ITEMS:+,}{\"id\":$i,\"features\":$IF,\"cover\":$CV,\"init_score\":0.$((i + 1))}"
done
BODY="{\"user_features\":$UF,\"items\":[$ITEMS],\"topic_sequences\":[$SEQS]}"
rerank() {
    curl -fs -X POST -H 'Content-Type: application/json' -d "$BODY" \
        "http://$ADDR/v1/rerank"
}
scores() { grep -o '"scores":\[[^]]*\]' <<<"$1"; }
metric() { awk -v m="$1" '$1 == m {print $2}' <<<"$2"; }
ge1() { awk -v v="${1:-0}" 'BEGIN { exit !(v >= 1) }'; }

echo "== user-state cache serves a byte-identical repeat request"
# The cache's doorkeeper admits a user on their second request, so the third
# is the first that can hit.
R0="$(rerank)"; R1="$(rerank)"; R2="$(rerank)"
S0="$(scores "$R0")"; S1="$(scores "$R1")"; S2="$(scores "$R2")"
[ -n "$S1" ] || { echo "FAIL: rerank returned no scores: $R1"; exit 1; }
[ "$S0" = "$S1" ] && [ "$S1" = "$S2" ] \
    || { echo "FAIL: repeat request scores diverged: $S0 vs $S1 vs $S2"; exit 1; }
METRICS="$(curl -fs "http://$ADDR/metrics")"
ge1 "$(metric rapid_state_cache_hits_total "$METRICS")" \
    || { echo "FAIL: repeat request produced no state-cache hit"; exit 1; }
ge1 "$(metric rapid_state_cache_entries "$METRICS")" \
    || { echo "FAIL: state cache holds no entries after a scored request"; exit 1; }

echo "== rollback reverts to $NEW"
admin POST /admin/models/rollback >/dev/null
LIST="$(admin GET /admin/models)"
grep -q "\"version\":\"$NEW\",\"state\":\"active\"" <<<"$LIST" \
    || { echo "FAIL: rollback did not restore $NEW"; exit 1; }

echo "== rollback flushed the state cache; repeat parity on $NEW"
METRICS="$(curl -fs "http://$ADDR/metrics")"
ge1 "$(metric rapid_state_cache_invalidations_total "$METRICS")" \
    || { echo "FAIL: lifecycle transition did not flush the state cache"; exit 1; }
R3="$(rerank)"; R4="$(rerank)"
S3="$(scores "$R3")"; S4="$(scores "$R4")"
[ -n "$S3" ] && [ "$S3" = "$S4" ] \
    || { echo "FAIL: post-rollback repeat scores diverged: $S3 vs $S4"; exit 1; }

echo "== admin guard rejects bad tokens"
CODE="$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer wrong" \
    "http://$ADDR/admin/models")"
[ "$CODE" = 403 ] || { echo "FAIL: wrong token got $CODE, want 403"; exit 1; }

echo "PASS: model lifecycle smoke"
