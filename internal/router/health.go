package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/engine"
)

// HealthConfig bounds the per-replica readiness prober. The zero value is
// usable: every field falls back to the listed default.
type HealthConfig struct {
	// Interval is the steady-state probe period while a replica is healthy
	// (default 1s).
	Interval time.Duration
	// Timeout bounds one probe round trip (default 500ms).
	Timeout time.Duration
	// MaxBackoff caps the probe backoff while a replica stays unhealthy
	// (default 10s). Probes of a failing replica back off exponentially from
	// Interval so a dead node costs the router almost nothing, but the first
	// successful probe re-admits it immediately.
	MaxBackoff time.Duration
	// Ejections is how many consecutive probe failures eject a replica
	// (default 2): one lost probe packet must not drain a healthy node.
	Ejections int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 500 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 10 * time.Second
	}
	if c.Ejections <= 0 {
		c.Ejections = 2
	}
	return c
}

// replicaState is the router's live view of one replica: its breaker, the
// prober's verdicts, and the model version it last advertised.
type replicaState struct {
	id   string
	base string // normalized base URL, no trailing slash
	br   *breaker

	mu       sync.Mutex
	healthy  bool
	draining bool
	version  string
	lastErr  string
	failures int // consecutive probe failures
}

// snapshot returns the mutable fields under one lock acquisition.
func (rs *replicaState) snapshot() (healthy, draining bool, version, lastErr string, failures int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.healthy, rs.draining, rs.version, rs.lastErr, rs.failures
}

// eligible reports whether the forward path may try this replica at all
// (the breaker is consulted separately, because allow() has side effects).
func (rs *replicaState) eligible() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.healthy && !rs.draining
}

// markDraining records an in-band draining shed (the replica answered 503
// with X-Shed-Reason: draining) so the forward path stops picking it before
// the next probe confirms.
func (rs *replicaState) markDraining() {
	rs.mu.Lock()
	rs.draining = true
	rs.mu.Unlock()
}

// probeLoop is one replica's prober goroutine: GET /readyz at Interval while
// healthy, exponential backoff up to MaxBackoff while not.
func (r *Router) probeLoop(rs *replicaState) {
	defer r.wg.Done()
	timer := time.NewTimer(0) // first probe immediately
	defer timer.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-timer.C:
		}
		timer.Reset(r.probeOnce(rs))
	}
}

// probeOnce runs one readiness probe, applies the verdict, and returns the
// delay until the next probe.
func (r *Router) probeOnce(rs *replicaState) time.Duration {
	h := r.cfg.Health
	st, err := r.probe(rs)
	switch {
	case err != nil:
		return r.probeFailed(rs, err.Error())
	case st.Draining:
		// Draining is a clean goodbye, not a failure: eject without
		// penalizing the replica's breaker and keep probing at the steady
		// interval — the replaced process reuses the address.
		rs.mu.Lock()
		rs.draining = true
		rs.healthy = false
		rs.lastErr = ""
		rs.failures = 0
		rs.mu.Unlock()
		r.refreshFleetGauges()
		return h.Interval
	case !st.Ready:
		return r.probeFailed(rs, "not ready")
	default:
		rs.mu.Lock()
		wasHealthy := rs.healthy
		rs.healthy = true
		rs.draining = false
		rs.version = st.ModelVersion
		rs.lastErr = ""
		rs.failures = 0
		rs.mu.Unlock()
		if !wasHealthy {
			// Re-admission: a fresh process behind the same address starts
			// with a clean slate — the old process's error window is not
			// evidence against the new one.
			rs.br.reset()
			r.logf("router: replica %s re-admitted (version %q)", rs.id, st.ModelVersion)
		}
		r.refreshFleetGauges()
		return h.Interval
	}
}

// probeFailed applies one probe failure and returns the backed-off delay.
func (r *Router) probeFailed(rs *replicaState, reason string) time.Duration {
	h := r.cfg.Health
	rs.mu.Lock()
	rs.failures++
	rs.lastErr = reason
	eject := rs.failures >= h.Ejections && rs.healthy
	if rs.failures >= h.Ejections {
		rs.healthy = false
	}
	failures := rs.failures
	rs.mu.Unlock()
	if eject {
		// Stop in-band traffic immediately rather than waiting for request
		// failures to accumulate in the breaker window.
		rs.br.forceOpen()
		r.logf("router: replica %s ejected: %s", rs.id, reason)
		r.refreshFleetGauges()
	}
	// Exponential backoff from Interval, capped: 1s, 2s, 4s, ... MaxBackoff.
	delay := h.Interval
	for i := h.Ejections; i < failures && delay < h.MaxBackoff; i++ {
		delay *= 2
	}
	if delay > h.MaxBackoff {
		delay = h.MaxBackoff
	}
	return delay
}

// probe issues one GET /readyz and decodes the body. The status-code
// contract (200 ready / 503 not) is authoritative; the JSON body refines it
// with the draining flag and the pinned model version when present.
func (r *Router) probe(rs *replicaState) (engine.ReadyStatus, error) {
	req, err := http.NewRequest(http.MethodGet, rs.base+"/readyz", nil)
	if err != nil {
		return engine.ReadyStatus{}, err
	}
	resp, err := r.probeClient.Do(req)
	if err != nil {
		return engine.ReadyStatus{}, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	var st engine.ReadyStatus
	if json.Unmarshal(body, &st) != nil {
		// Pre-body replicas answer plain text; fall back to the status code.
		st = engine.ReadyStatus{}
	}
	switch resp.StatusCode {
	case http.StatusOK:
		st.Ready = true
		return st, nil
	case http.StatusServiceUnavailable:
		st.Ready = false
		return st, nil
	default:
		return engine.ReadyStatus{}, fmt.Errorf("readyz status %d", resp.StatusCode)
	}
}

// refreshFleetGauges recomputes the cross-replica gauges: per-replica health
// and the version-skew indicator (more than one distinct model version
// advertised by healthy replicas — expected transiently during a rollout,
// an alert if it persists).
func (r *Router) refreshFleetGauges() {
	r.gaugeMu.Lock()
	defer r.gaugeMu.Unlock()
	versions := map[string]bool{}
	for _, rs := range r.replicas {
		healthy, _, version, _, _ := rs.snapshot()
		if healthy {
			r.met.healthy.With(rs.id).Set(1)
			if version != "" {
				versions[version] = true
			}
		} else {
			r.met.healthy.With(rs.id).Set(0)
		}
	}
	r.met.versions.Set(float64(len(versions)))
	if len(versions) > 1 {
		r.met.skew.Set(1)
	} else {
		r.met.skew.Set(0)
	}
}
