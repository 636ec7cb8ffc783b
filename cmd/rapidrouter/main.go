// Command rapidrouter fronts a fleet of rapidserve replicas with the
// fault-tolerant consistent-hash router (internal/router): requests shard
// across replicas by the user key (engine.UserKey), unhealthy replicas
// are ejected by /readyz probes and starved by per-replica circuit breakers,
// sheds and failures are retried under a retry budget, and slow owners can
// be hedged to the next replica in the key's fallback sequence.
//
//	rapidrouter -addr :8090 \
//	  -replicas r0=http://127.0.0.1:8081,r1=http://127.0.0.1:8082,r2=http://127.0.0.1:8083 \
//	  -hedge 25ms
//
// Replica IDs (the part before "=") are hashed onto the ring: keep them
// stable across restarts and address changes so keyspace ownership — and
// with it every replica-local cache — survives redeploys. Bare URLs are
// accepted and given positional IDs, which is fine for fixed fleets.
//
// Endpoints:
//
//	POST /v1/rerank, /v1/rerank:batch — proxied to the fleet
//	GET  /healthz     — router liveness
//	GET  /readyz      — 200 while at least one replica is admitted
//	GET  /metrics     — rapid_router_* Prometheus text exposition
//	GET  /admin/fleet — per-replica health, breaker states, version skew
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
)

// retryBackoffCap bounds the sleep between two attempts at one request. It is
// handed to the router and sizes the edge's WriteTimeout, so the two agree.
const retryBackoffCap = time.Second

func main() {
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		replicas = flag.String("replicas", "", "comma-separated fleet: id=url pairs (or bare urls, given positional ids)")
		hedge    = flag.Duration("hedge", 0, "hedge delay: start a second attempt on the next replica if the owner has not answered (0 disables)")
		attempt  = flag.Duration("attempt-timeout", 5*time.Second, "per-attempt timeout against one replica")

		probeEvery = flag.Duration("probe-interval", time.Second, "readiness probe period per replica")
		ejections  = flag.Int("probe-ejections", 2, "consecutive probe failures before a replica is ejected")

		retries     = flag.Int("retries", 3, "max attempts per request including the primary")
		retryBase   = flag.Duration("retry-base", 25*time.Millisecond, "base retry backoff (jittered, doubling)")
		budgetRatio = flag.Float64("retry-budget", 0.1, "retry-budget earn rate: tokens deposited per primary request; each retry or hedge spends one")
	)
	flag.Parse()

	fleet, err := parseReplicas(*replicas)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidrouter: %v\n", err)
		os.Exit(2)
	}
	if *retries <= 0 || *attempt <= 0 {
		fmt.Fprintln(os.Stderr, "rapidrouter: -retries and -attempt-timeout must be positive")
		os.Exit(2)
	}
	r, err := router.New(router.Config{
		Replicas:       fleet,
		HedgeDelay:     *hedge,
		AttemptTimeout: *attempt,
		Health: router.HealthConfig{
			Interval:  *probeEvery,
			Ejections: *ejections,
		},
		Retry: router.RetryConfig{
			MaxAttempts: *retries,
			BaseBackoff: *retryBase,
			MaxBackoff:  retryBackoffCap,
			BudgetRatio: *budgetRatio,
		},
		Log: log.Printf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidrouter: %v\n", err)
		os.Exit(2)
	}
	srv := newHTTPServer(*addr, r.Handler(), *retries, *attempt)
	if err := serveRouter(r, srv, len(fleet), *hedge); err != nil {
		fmt.Fprintf(os.Stderr, "rapidrouter: %v\n", err)
		os.Exit(1)
	}
}

// newHTTPServer builds the fleet's client-facing server with the read-side
// timeouts internal/serve gives a replica — without them one slow-loris
// client wedges the edge — and a WriteTimeout sized to the slowest answer the
// router can still produce: every attempt running to its timeout with a full
// backoff between them, plus a margin for reading the body (ReadTimeout) and
// relaying the response.
func newHTTPServer(addr string, h http.Handler, retries int, attemptTimeout time.Duration) *http.Server {
	const margin = 10 * time.Second
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 2 * time.Second,
		ReadTimeout:       5 * time.Second,
		WriteTimeout:      time.Duration(retries)*(attemptTimeout+retryBackoffCap) + margin,
		IdleTimeout:       60 * time.Second,
	}
}

// serveRouter runs the router's HTTP server until SIGINT/SIGTERM, then shuts
// down gracefully.
func serveRouter(r *router.Router, srv *http.Server, replicas int, hedge time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r.Start()
	defer r.Close()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("rapidrouter: listening on %s (%d replicas, hedge %v, metrics at /metrics, fleet at /admin/fleet)",
		srv.Addr, replicas, hedge)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// parseReplicas decodes the -replicas flag: "id=url" pairs, or bare URLs
// that get positional ids r0, r1, ...
func parseReplicas(spec string) ([]router.Replica, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, errors.New("no replicas: pass -replicas id=url[,id=url...]")
	}
	var fleet []router.Replica
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		if !ok {
			id, u = fmt.Sprintf("r%d", i), part
		}
		fleet = append(fleet, router.Replica{ID: id, URL: u})
	}
	return fleet, nil
}
