// Command rapidserve exposes a trained RAPID model as a hardened HTTP
// re-ranking microservice — the deployment shape the paper's efficiency
// analysis (Section V-B) targets, where re-ranking must fit inside an
// industrial response budget (< 50 ms) and must never stall or crash the
// serving chain it sits in.
//
// Deployment shapes:
//
//	rapidserve -model rapid-model.gob -addr :8080        # one fixed model
//	rapidserve -model-root /srv/models -addr :8080       # versioned registry
//	rapidserve -model rapid-model.gob -diversifier mmr   # classic diversifier
//	rapidserve -model-root /srv/models -publish-diversifier window  # publish & exit
//
// With -diversifier the scoring seat holds a weightless classic diversifier
// (internal/diversify: mmr, dpp, bswap or window) at -diversifier-lambda; the
// manifest next to -model still supplies the surface geometry. With
// -publish-diversifier a diversifier version is committed into -model-root as
// div-<name> (geometry copied from the newest version) so the admin API can
// load, canary, shadow-compare, promote and roll it back exactly like a model.
//
// With -model-root the server opens a model registry (internal/registry)
// over a directory of versions published by rapidtrain -publish, activates
// the newest one, and exposes the model lifecycle over the admin API: load a
// candidate (warm-up validated, then canaried to -canary-pct of traffic and
// shadow-scored with -shadow), promote it, or roll back — all without
// dropping a request. The root is the registry's only record: every admin
// listing reads it afresh and a load reads any published label from it, so
// a newly published version needs no signal. SIGHUP is ignored.
//
// With -tenant-root a request may name a tenant. Each tenant is a directory
// of versions; on the tenant's first request its newest version is loaded,
// warmed up and pinned, and it stays resident until -tenant-budget-mb or
// -tenant-max-resident evicts the least recently used tenant. A tenant has
// no lifecycle of its own: a newly published version serves from its next
// load. Every layer — engine, tenants, lifecycle, feedback — reports into
// one metrics registry, so /metrics is one namespace.
//
// Endpoints:
//
//	POST /v1/rerank       — JSON request → re-ranked item IDs and scores
//	POST /v1/rerank:batch — multi-request envelope, one slot and one deadline
//	POST /v1/feedback     — click/skip events joined back to served responses (-feedback-log)
//	GET  /healthz  — liveness, model metadata and operational counters
//	GET  /readyz   — readiness; 503 while draining
//	GET  /metrics  — Prometheus text exposition (internal/obs)
//	GET  /admin/models            — versions and lifecycle states (-model-root only)
//	POST /admin/models/load       — {"version": "..."}: stage a canary candidate
//	POST /admin/models/promote    — {"version": "..."}: candidate → active
//	POST /admin/models/rollback   — abort candidate / revert to previous
//	GET  /debug/pprof/* — profiling, only with -pprof
//
// Admin endpoints require -admin-token as a bearer token, or a loopback peer
// when no token is set.
//
// Robustness envelope (see internal/serve): per-request scoring deadline
// with graceful degradation to the initial-ranker order, bounded
// concurrency with 429 load shedding, panic recovery, request-size caps,
// and SIGINT/SIGTERM graceful drain. Every request goes straight to one of
// -batch-workers scoring workers; every item of an envelope is its own job
// on its own registry pin, so a canary item is never scored by the active
// version. -chaos-latency is the one fault a replica can be told to inject:
// a fixed delay on every scoring pass.
//
// The request must carry everything the model consumes (features, topic
// coverage, per-topic behavior sequences), mirroring rerank.Instance:
//
//	{
//	  "user_features": [...],
//	  "items": [{"id": 1, "features": [...], "cover": [...], "init_score": 0.7}, ...],
//	  "topic_sequences": [[{"features": [...]}, ...], ...]   // one list per topic
//	}
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bandit"
	"repro/internal/diversify"
	"repro/internal/engine"
	"repro/internal/feedback"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/rerank"
	"repro/internal/serve"
)

func main() {
	var (
		modelPath    = flag.String("model", "rapid-model.gob", "model weights from rapidtrain (single-model mode; ignored with -model-root)")
		modelRoot    = flag.String("model-root", "", "versioned model registry root (from rapidtrain -publish); enables the lifecycle admin API")
		canaryPct    = flag.Float64("canary-pct", 5, "percent of traffic routed to a loaded candidate version (registry mode)")
		shadowOn     = flag.Bool("shadow", false, "shadow-score loaded candidates off the request path and export divergence histograms (registry mode)")
		adminToken   = flag.String("admin-token", "", "bearer token for the admin endpoints; empty restricts them to loopback peers")
		addr         = flag.String("addr", ":8080", "listen address")
		budget       = flag.Duration("budget", 50*time.Millisecond, "per-request scoring deadline before degrading to the initial order")
		inflight     = flag.Int("max-inflight", 0, "max concurrent scoring passes (0 = 4×GOMAXPROCS)")
		queueWait    = flag.Duration("queue-wait", 10*time.Millisecond, "max wait for a scoring slot before shedding with 429")
		maxBody      = flag.Int64("max-body", 8<<20, "request body cap in bytes")
		drain        = flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		pprofOn      = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default: profiling endpoints are a DoS surface)")
		batchWorkers = flag.Int("batch-workers", 0, "scoring worker goroutines (0 = max(2, GOMAXPROCS))")
		stateCacheMB = flag.Int64("state-cache-mb", 64, "memory budget in MiB for the encoded user-state cache (repeat-user fast path; 0 disables)")
		binaryAddr   = flag.String("binary-addr", "", "additionally serve the fleet-internal binary protocol on this TCP address (same engine and models as HTTP)")

		tenantRoot        = flag.String("tenant-root", "", "multi-tenant model store root (one single-tenant version store per subdirectory); requests may then name a tenant")
		tenantBudgetMB    = flag.Int64("tenant-budget-mb", 512, "resident-tenant memory budget in MiB; past it least-recently-used tenants are evicted (0 = unlimited)")
		tenantMaxResident = flag.Int("tenant-max-resident", 0, "max resident tenants regardless of size (0 = unlimited)")
		tenantMaxInflight = flag.Int("tenant-max-inflight", 0, "per-tenant quota of concurrent rerank calls, a batch envelope taking one slot per distinct tenant among its items; saturation sheds with reason tenant_quota (0 = no quota)")

		feedbackLog     = flag.String("feedback-log", "", "directory for the append-only feedback event log; mounts POST /v1/feedback (registry mode)")
		feedbackSegMB   = flag.Int64("feedback-segment-mb", 4, "feedback log segment rotation threshold in MiB")
		feedbackMaxSegs = flag.Int("feedback-max-segments", 64, "committed feedback log segments retained before the oldest are deleted")
		banditPct       = flag.Float64("bandit-pct", 0, "percent of traffic served by bandit-tuned diversifier arms (requires -feedback-log)")
		banditArms      = flag.String("bandit-arms", "mmr@0.2,mmr@0.4,mmr@0.6,mmr@0.8", "comma-separated λ grid of diversifier arms, e.g. mmr@0.2,window@0.8")
		banditSegments  = flag.Int("bandit-segments", 8, "user segments (user key % segments) learning independent arm values")

		diversifier = flag.String("diversifier", "", "serve a classic diversifier (mmr|dpp|bswap|window) instead of model weights; -model still supplies the manifest geometry (single-model mode)")
		divLambda   = flag.Float64("diversifier-lambda", 0.5, "relevance/diversity trade-off λ for -diversifier and -publish-diversifier")
		publishDiv  = flag.String("publish-diversifier", "", "publish a weightless diversifier version (mmr|dpp|bswap|window) into -model-root, copying the newest version's geometry, then exit")

		chaosLatency = flag.Duration("chaos-latency", 0, "CHAOS TESTING: extra latency injected into the scoring path (0 = off); slows responses while -budget allows, degrades them past it")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// One metrics namespace for the process: the engine, the tenant store,
	// the lifecycle layer and the feedback loop all register here.
	cfg := serve.Config{
		Registry:        obs.NewRegistry(),
		StateCacheBytes: *stateCacheMB << 20,
		Budget:          *budget,
		MaxInFlight:     *inflight,
		QueueWait:       *queueWait,
		MaxBodyBytes:    *maxBody,
		DrainTimeout:    *drain,
		Pprof:           *pprofOn,
		AdminToken:      *adminToken,
		Batch:           engine.BatchConfig{Workers: *batchWorkers},
	}
	if *binaryAddr != "" {
		ln, err := net.Listen("tcp", *binaryAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rapidserve: binary listener: %v\n", err)
			os.Exit(1)
		}
		cfg.BinaryListener = ln
		log.Printf("rapidserve: binary protocol on %s", ln.Addr())
	}
	if *tenantRoot != "" {
		multi, err := registry.NewMulti(registry.MultiConfig{
			Root:             *tenantRoot,
			MaxResidentBytes: *tenantBudgetMB << 20,
			MaxResident:      *tenantMaxResident,
			Registry:         cfg.Registry,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rapidserve: tenant store: %v\n", err)
			os.Exit(1)
		}
		cfg.Tenants = multi
		cfg.TenantMaxInFlight = *tenantMaxInflight
		log.Printf("rapidserve: multi-tenant store at %s (budget %d MiB, max resident %d, per-tenant inflight %d)",
			*tenantRoot, *tenantBudgetMB, *tenantMaxResident, *tenantMaxInflight)
	}
	faults := chaosHooks(*chaosLatency)
	fb := feedbackOpts{
		dir:         *feedbackLog,
		segmentMB:   *feedbackSegMB,
		maxSegments: *feedbackMaxSegs,
		banditPct:   *banditPct,
		arms:        *banditArms,
		segments:    *banditSegments,
	}
	var err error
	switch {
	case *publishDiv != "":
		err = publishDiversifier(*modelRoot, *publishDiv, *divLambda)
	case *modelRoot != "":
		err = runRegistry(ctx, *modelRoot, *addr, cfg, *canaryPct, *shadowOn, faults, fb)
	case *feedbackLog != "" || *banditPct > 0:
		err = errors.New("-feedback-log and -bandit-pct require -model-root (the feedback loop republishes through the registry)")
	case *diversifier != "":
		err = runDiversifier(ctx, *modelPath, *diversifier, *divLambda, *addr, cfg, faults)
	default:
		err = run(ctx, *modelPath, *addr, cfg, faults)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidserve: %v\n", err)
		os.Exit(1)
	}
}

// chaosHooks builds the scoring-path fault injector from -chaos-latency, or
// nil when it is off. The flag turns any replica into a controllable slow
// node for fleet testing: every scoring pass takes that much longer while the
// budget allows, and degrades past it (never a 5xx — the serving layer's
// contract).
func chaosHooks(latency time.Duration) *engine.FaultHooks {
	if latency <= 0 {
		return nil
	}
	return &engine.FaultHooks{
		After: func(ctx context.Context, _ *rerank.Instance, _ []float64) error {
			t := time.NewTimer(latency)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err() // past the budget: degrade as a deadline miss
			case <-t.C:
				return nil
			}
		},
	}
}

// run is the single-model deployment shape: one fixed model, no lifecycle.
func run(ctx context.Context, modelPath, addr string, cfg serve.Config, faults *engine.FaultHooks) error {
	model, man, err := engine.LoadModel(modelPath)
	if err != nil {
		return err
	}
	srv := serve.NewServer(model, man, cfg)
	srv.Faults = faults
	log.Printf("rapidserve: listening on %s (model %s, dataset %s, budget %v, metrics at /metrics, pprof %v)",
		addr, model.Name(), man.Dataset, cfg.Budget, cfg.Pprof)
	return srv.Run(ctx, addr)
}

// runDiversifier is the single-model shape with a classic diversifier in the
// scoring seat: the manifest next to -model supplies the surface geometry
// (request validation), but scoring goes through the weightless
// internal/diversify adapter at the requested λ.
func runDiversifier(ctx context.Context, modelPath, name string, lambda float64, addr string, cfg serve.Config, faults *engine.FaultHooks) error {
	man, err := engine.ReadManifest(modelPath)
	if err != nil {
		return err
	}
	ds, err := diversify.NewScorer(name, lambda)
	if err != nil {
		return err
	}
	srv := serve.NewServer(ds, man, cfg)
	srv.Faults = faults
	log.Printf("rapidserve: listening on %s (diversifier %s, lambda %.2f, dataset %s, budget %v)",
		addr, ds.Name(), lambda, man.Dataset, cfg.Budget)
	return srv.Run(ctx, addr)
}

// publishDiversifier commits a weightless diversifier version into the
// registry root: the newest published version supplies the surface geometry,
// the manifest gains the diversifier name and λ, and the usual atomic commit
// makes it loadable/canariable/promotable like any model version.
func publishDiversifier(root, name string, lambda float64) error {
	if root == "" {
		return errors.New("-publish-diversifier requires -model-root")
	}
	if !diversify.Known(name) {
		return fmt.Errorf("unknown diversifier %q (have %v)", name, diversify.Names())
	}
	// Training metrics belong to the donor version: the new one carries none.
	man, versions, err := registry.DiversifierManifest(root, name, lambda, nil)
	if err != nil {
		return err
	}
	committed, err := registry.PublishDiversifier(root, "div-"+name, man)
	if err != nil {
		return err
	}
	log.Printf("rapidserve: published diversifier version %s (diversifier %s, lambda %.2f, geometry from %s)",
		committed, name, lambda, versions[len(versions)-1])
	fmt.Println(committed)
	return nil
}

// feedbackOpts carries the -feedback-* / -bandit-* flags into registry mode.
type feedbackOpts struct {
	dir         string
	segmentMB   int64
	maxSegments int
	banditPct   float64
	arms        string
	segments    int
}

// runRegistry is the versioned deployment shape: activate the newest
// published version, serve through the registry so versions hot-swap under
// live traffic, and expose the lifecycle admin API, which reads the store
// from disk on every call (SIGHUP is ignored; it has nothing to reload). With
// -feedback-log it closes the loop: /v1/feedback events land in a crash-safe
// append-only log, and with -bandit-pct a slice of traffic is served by
// bandit-tuned diversifier arms whose values learn from that feedback.
func runRegistry(ctx context.Context, root, addr string, cfg serve.Config, canaryPct float64, shadow bool, faults *engine.FaultHooks, fb feedbackOpts) error {
	signal.Ignore(syscall.SIGHUP)
	reg, err := registry.New(registry.Config{
		Root:          root,
		CanaryPercent: canaryPct,
		Shadow:        shadow,
		Registry:      cfg.Registry,
	})
	if err != nil {
		return err
	}
	defer reg.Close()
	active, err := reg.ActivateLatest()
	if err != nil {
		return err
	}
	cfg.Admin = reg

	var provider engine.Provider = reg
	if fb.banditPct > 0 && fb.dir == "" {
		return errors.New("-bandit-pct requires -feedback-log (arms learn from ingested feedback)")
	}
	if fb.dir != "" {
		l, err := feedback.Open(fb.dir, feedback.Options{
			SegmentBytes: fb.segmentMB << 20,
			MaxSegments:  fb.maxSegments,
		})
		if err != nil {
			return err
		}
		var pol *bandit.Policy
		if fb.banditPct > 0 {
			arms, err := bandit.ParseArms(fb.arms)
			if err != nil {
				return err
			}
			pol, err = bandit.NewPolicy(bandit.PolicyConfig{
				Arms:     arms,
				Segments: fb.segments,
			})
			if err != nil {
				return err
			}
			provider, err = feedback.NewBanditProvider(reg, pol, fb.banditPct)
			if err != nil {
				return err
			}
		}
		ing := feedback.NewIngestor(l, pol, feedback.IngestConfig{Registry: cfg.Registry})
		defer func() {
			if err := ing.Close(); err != nil {
				log.Printf("rapidserve: feedback log close: %v", err)
			}
		}()
		cfg.Feedback = ing
		log.Printf("rapidserve: feedback log at %s (segment %d MiB, retain %d), bandit %.1f%% (%q, %d segments)",
			fb.dir, fb.segmentMB, fb.maxSegments, fb.banditPct, fb.arms, fb.segments)
	}

	srv := serve.NewProviderServer(provider, cfg)
	srv.Faults = faults
	// Every lifecycle transition flushes the encoded user-state cache: a
	// promoted or rolled-back model must never serve a state encoded by its
	// predecessor (see DESIGN.md on cache invalidation).
	reg.SetOnSwap(srv.FlushStateCache)

	guard := "loopback-only"
	if cfg.AdminToken != "" {
		guard = "bearer-token"
	}
	log.Printf("rapidserve: listening on %s (registry %s, active %s, canary %.1f%%, shadow %v, admin API %s, budget %v)",
		addr, root, active, canaryPct, shadow, guard, cfg.Budget)
	return srv.Run(ctx, addr)
}
