# Repo-wide checks. `make check` is the CI gate: vet + formatting + tests.
GO ?= go

.PHONY: check build vet fmt test test-short race fuzz smoke chaos-smoke diversify-smoke feedback-smoke bench bench-core bench-json bench-batch bench-batch-smoke bench-pr7 bench-pr7-smoke bench-pr9 bench-pr10 bench-pr10-smoke

check: vet fmt test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l prints offending files; any output fails the target.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full suite under the race detector (slow; the serving and training layers
# are concurrent and must stay race-clean).
race:
	$(GO) test -race ./...

# Fuzz smoke: run each wire-level fuzz target for a short burst on top of
# its committed seed corpus (testdata/fuzz). CI runs this; longer local
# sessions just raise FUZZTIME.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzRerankRequest -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run=^$$ -fuzz=FuzzManifest -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run=^$$ -fuzz=FuzzDiversifierAdapter -fuzztime=$(FUZZTIME) ./internal/diversify
	$(GO) test -run=^$$ -fuzz=FuzzFeedbackEvent -fuzztime=$(FUZZTIME) ./internal/feedback
	$(GO) test -run=^$$ -fuzz=FuzzBinaryFrame -fuzztime=$(FUZZTIME) ./internal/serve/binproto
	$(GO) test -run=^$$ -fuzz=FuzzDecodeRequestJSON -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run=^$$ -fuzz=FuzzRouteKeyJSON -fuzztime=$(FUZZTIME) ./internal/engine

# Model-lifecycle smoke: trains two tiny models, publishes them into a
# versioned store, serves it with rapidserve -model-root and drives a
# load → promote → rollback cycle through the admin API, asserting the
# per-version /metrics series. The end-to-end check of internal/registry
# through the real binaries.
smoke:
	./scripts/lifecycle_smoke.sh

# Fleet chaos smoke: three registry-mode replicas (one 10x slow, distinct
# model versions across stores) behind rapidrouter, with a kill -9 + restart
# mid-load. Asserts zero dropped requests, version-skew detection, retry and
# hedge accounting, and writes hedged/unhedged latency percentiles to
# BENCH_PR6.json. The end-to-end check of internal/router through the real
# binaries.
chaos-smoke:
	./scripts/router_chaos_smoke.sh

# Diversifier-suite smoke: publishes the four classic diversifiers as
# weightless versions beside a trained RAPID model, then canaries each one
# behind /v1/rerank with shadow comparison on, asserting the per-diversifier
# rapid_diversifier_* series. The end-to-end check of internal/diversify's
# serving seam through the real binaries.
diversify-smoke:
	./scripts/diversify_smoke.sh

# Feedback-loop smoke: serves with the event log and a bandit λ slice on,
# drives DCM-simulated clicks into /v1/feedback, kill -9s the server
# mid-traffic, then runs the rapidfeed trainer against the live admin API
# until an online-learned div-fb-* version is canaried and promoted.
# Asserts zero dropped requests, the rapid_feedback_*/rapid_bandit_* series,
# a byte-identical log prefix across the crash, and incremental ≡ batch
# re-estimation on the replayed log. The end-to-end check of
# internal/feedback through the real binaries.
feedback-smoke:
	./scripts/feedback_smoke.sh

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Scorer micro-benchmarks (internal/core/bench_test.go): the tape-free
# inference forward cold, warm, batched and the preference pass alone, beside
# Logits on a tape as the yardstick. TaobaoLike geometry, 20-item lists. And
# the request codec's (internal/engine/wirejson_test.go): the schema decoder
# and the router's skim beside encoding/json on a pool-shaped request.
bench-core:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/core ./internal/engine

# Machine-readable perf snapshot: runs the shared benchmark suite
# (internal/benchsuite) and writes current numbers next to the committed
# pre-change baseline. Slow — includes a full Table II(a) experiment.
bench-json:
	$(GO) run ./cmd/rapidbench -benchjson BENCH_PR2.json

# Batched-inference perf snapshot: single-request vs ScoreBatch at batch
# sizes 1/4/16, written next to the committed pre-change baseline.
bench-batch:
	$(GO) run ./cmd/rapidbench -batchjson BENCH_PR5.json

# CI gate: runs only the single-request and batch-16 benchmarks and fails
# on a >10% single-request latency regression or <2x batch-16 throughput
# against the committed baseline.
bench-batch-smoke:
	$(GO) run ./cmd/rapidbench -batchjson BENCH_PR5.json -smoke -check

# Parallel-GEMM and user-state-cache perf snapshot: serial vs parallel
# MatMulInto at 32/128/256/384 plus cold vs warm batch-16 state scoring,
# written next to the committed pre-change baseline. The speedup gates are
# machine-aware: parallel wins are only required when GOMAXPROCS > 1.
bench-pr7:
	$(GO) run ./cmd/rapidbench -pr7json BENCH_PR7.json

# CI gate: the GEMM32/GEMM256 and cold/warm entries only, failing on a
# below-cutoff dispatch tax, serial-kernel drift, a missing parallel win on
# multi-core machines, or a warm path that does not beat cold.
bench-pr7-smoke:
	$(GO) run ./cmd/rapidbench -pr7json BENCH_PR7.json -smoke -check

# Bandit regret study: simulates the serving-path λ policy against every
# fixed-λ ablation over a segment-heterogeneous reward environment and
# writes the committed report. Fails if the policy's fitted regret exponent
# is not sublinear.
bench-pr9:
	$(GO) run ./cmd/rapidfeed -regretjson BENCH_PR9.json

# Frontend comparison snapshot: the JSON and binary codecs plus full
# round trips through both frontends against one shared engine, with
# bitwise score parity asserted before timing starts.
bench-pr10:
	$(GO) run ./cmd/rapidbench -pr10json BENCH_PR10.json

# CI gate: same run at one repetition, failing unless the binary path
# allocates strictly less per request than JSON (codec and round trip) and
# score parity holds.
bench-pr10-smoke:
	$(GO) run ./cmd/rapidbench -pr10json BENCH_PR10.json -smoke -check
