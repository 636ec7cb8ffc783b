# Repo-wide checks. `make check` is the CI gate: vet + formatting + layering +
# tests, here and in the benchmark's own module. No target rewrites a tracked
# file: after any of them `git status --short` is empty (goldens change only
# under an explicit `go test -update`).
GO ?= go

.PHONY: check build vet fmt layers test test-short examples race fuzz smoke chaos-smoke diversify-smoke feedback-smoke bench bench-core bench-test bench-align results-check

check: vet fmt layers test bench-test

build:
	$(GO) build ./...

# The portable build too, as CI does: off amd64 the vector kernels are stubs
# (internal/mat/simd_other.go), and code moved or deleted around them must
# still compile there.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# gofmt -l prints offending files; any output fails the target.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The layering DESIGN.md states, as a check over all of internal/: the engine
# is transport-neutral (imports neither net/http nor the HTTP frontend); a
# binary that only speaks the wire format (rapidload) does not link the HTTP
# frontend; and the HTTP frontend is a leaf — inside internal/ only the
# router imports internal/serve, an exception ROADMAP item 2 removes (its
# last uses are serve.ReadBody and serve.ShedReasonHeader). cmd/, tests, the
# root facade and bench/ may import it. A failure prints each offending
# "importer -> imported" edge; testdata/imports.golden lists them all.
EDGES_INTO_SERVE = '{{range .Imports}}{{if and (eq . "repro/internal/serve") (ne $$.ImportPath "repro/internal/router")}}{{$$.ImportPath}} -> {{.}}{{"\n"}}{{end}}{{end}}'
layers:
	@out="$$($(GO) list -f '{{range .Imports}}{{if or (eq . "net/http") (eq . "repro/internal/serve")}}{{$$.ImportPath}} -> {{.}}{{"\n"}}{{end}}{{end}}' ./internal/engine)" || exit 1; \
	if [ -n "$$out" ]; then echo "layers: internal/engine must import neither net/http nor internal/serve:"; echo "$$out" | grep .; exit 1; fi
	@out="$$($(GO) list -deps -f '{{range .Imports}}{{if eq . "repro/internal/serve"}}{{$$.ImportPath}} -> {{.}}{{"\n"}}{{end}}{{end}}' ./cmd/rapidload)" || exit 1; \
	if [ -n "$$out" ]; then echo "layers: cmd/rapidload must not link internal/serve:"; echo "$$out" | grep .; exit 1; fi
	@out="$$($(GO) list -f $(EDGES_INTO_SERVE) ./internal/...)" || exit 1; \
	if [ -n "$$out" ]; then echo "layers: inside internal/ only internal/router may import internal/serve:"; echo "$$out" | grep .; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Run every examples/ program end to end; the first non-zero exit fails the
# target. Tier-1 only compiles them.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d || exit 1; \
	done

# Full suite under the race detector (slow; the serving and training layers
# are concurrent and must stay race-clean).
race:
	$(GO) test -race ./...

# Fuzz smoke: run each wire-level fuzz target, and the vector kernels
# against their scalar twins, for a short burst on top of its committed seed
# corpus (testdata/fuzz). CI runs this; longer local sessions just raise
# FUZZTIME.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzRerankRequest -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run=^$$ -fuzz=FuzzManifest -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run=^$$ -fuzz=FuzzDiversifierAdapter -fuzztime=$(FUZZTIME) ./internal/diversify
	$(GO) test -run=^$$ -fuzz=FuzzFeedbackEvent -fuzztime=$(FUZZTIME) ./internal/feedback
	$(GO) test -run=^$$ -fuzz=FuzzBinaryFrame -fuzztime=$(FUZZTIME) ./internal/serve/binproto
	$(GO) test -run=^$$ -fuzz=FuzzDecodeRequestJSON -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run=^$$ -fuzz=FuzzRouteKeyJSON -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run=^$$ -fuzz=FuzzParseFloat -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run=^$$ -fuzz=FuzzSIMDKernels -fuzztime=$(FUZZTIME) ./internal/mat

# Model-lifecycle smoke: trains two tiny models, publishes them into a
# versioned store, serves it with rapidserve -model-root and drives a
# load → promote → rollback cycle through the admin API, asserting the
# per-version /metrics series. The end-to-end check of internal/registry
# through the real binaries.
smoke:
	./scripts/lifecycle_smoke.sh

# Fleet chaos smoke: three registry-mode replicas (one 10x slow, distinct
# model versions across stores) behind rapidrouter, with a kill -9 + restart
# mid-load. Asserts zero dropped requests, version-skew detection and retry
# and hedge accounting. The end-to-end check of internal/router through the
# real binaries.
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

# The paper's tables and figures at reduced scale, one experiment per
# benchmark iteration (bench_test.go). Minutes.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Scorer micro-benchmarks (internal/core/bench_test.go): the tape-free
# inference forward cold, warm, batched and the preference pass alone, beside
# Logits on a tape as the yardstick. TaobaoLike geometry, 20-item lists. And
# the request codec's (internal/engine/wirejson_test.go): the schema decoder
# and the router's skim beside encoding/json on a pool-shaped request. And the
# engine end to end (internal/engine/engine_test.go): one request, and one
# envelope of 16 — the only committed reading of the envelope path. And the
# hot kernels (internal/mat/simd_test.go), forward, backward and Adam, scalar
# beside vector. And the initial ranker (internal/ranker/din_test.go): DIN's
# tape-free score per candidate and one fit.
bench-core:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/core ./internal/engine ./internal/mat ./internal/ranker

# The repository benchmark (bench/, BENCHMARK.json) is its own module, so
# `go vet ./...` and `go test ./...` above never compile it. Its smoke test
# builds every workload and runs the bitwise set-up parity, which is what
# catches a product change that breaks the benchmark. To run the benchmark
# itself: `bash bench/run.sh` (bench/README.md).
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The benchmark's reference kernel reads faster or slower with where the
# linker puts it (ROADMAP item 24), so normalised numbers compare only
# between builds that put it at the same address mod 64. This builds bench/
# as bench/run.sh does, into .bench_build/, and prints main.runRefKernel's
# address and its value mod 64.
BENCH_ENV = GOCACHE="$(CURDIR)/.bench_build/gocache" GOPATH="$(CURDIR)/.bench_build/gopath" \
	XDG_CONFIG_HOME="$(CURDIR)/.bench_build/config" GOTOOLCHAIN=local GOWORK=off
bench-align:
	@mkdir -p .bench_build
	@cd bench && $(BENCH_ENV) $(GO) build -o "$(CURDIR)/.bench_build/bench" .
	@addr="$$($(GO) tool nm -n .bench_build/bench | awk '$$3 == "main.runRefKernel" {print $$1}')"; \
	if [ -z "$$addr" ]; then echo "bench-align: main.runRefKernel not found"; exit 1; fi; \
	echo "main.runRefKernel 0x$$addr ($$((0x$$addr % 64)) mod 64)"

# The extensions archive (results_extensions.txt) against today's code: its
# four experiments run again at scale 0.5, seed 42 (≈15 s) into a temp file,
# which must match the committed archive byte for byte. The archive's first
# line is the command that regenerates it.
RESULTS_EXT = divfn robust personal extended
results-check:
	@d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/rapidbench" ./cmd/rapidbench || exit 1; \
	{ echo '# for e in $(RESULTS_EXT); do go run ./cmd/rapidbench -exp $$e -scale 0.5 -seed 42; done'; \
	  for e in $(RESULTS_EXT); do "$$d/rapidbench" -exp $$e -scale 0.5 -seed 42 2>/dev/null || exit 1; done; } > "$$d/results_extensions.txt" || exit 1; \
	diff -u results_extensions.txt "$$d/results_extensions.txt" || { echo "results_extensions.txt is stale: regenerate it with its first line's command"; exit 1; }
