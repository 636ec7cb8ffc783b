// Package chaos is the fault-injection harness for fleet testing: a reverse
// proxy that sits between the router and a replica and misbehaves on
// command. It extends the serving layer's engine.FaultHooks seam (which
// injects faults inside the scoring path) to the network boundary, where a
// router actually experiences failure: added latency, shed and error
// bursts, dropped connections, and whole-replica blackouts.
//
// The proxy is deliberately deterministic — faults come from an Injector the
// test scripts, not from random sampling — so a chaos test asserts exact
// outcomes ("the router retried twice, then the breaker opened") instead of
// statistical ones.
package chaos

import (
	"fmt"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// Fault is what to do to one proxied request. The zero value forwards the
// request untouched.
type Fault struct {
	// Delay is added latency before the request is forwarded (or before the
	// synthesized response, if Status is set) — the slow-node fault.
	Delay time.Duration
	// Status, when non-zero, answers the request with this status code
	// without touching the backend — the shed/error-burst fault.
	Status int
	// RetryAfter and ShedReason decorate a synthesized response with the
	// serving layer's shed headers, so the router's shed handling is
	// exercised end to end.
	RetryAfter int    // seconds; 0 omits the header
	ShedReason string // X-Shed-Reason value; empty omits the header
	// Drop severs the connection mid-request with no response at all — the
	// crashed-process fault as seen by an in-flight request.
	Drop bool
}

// Injector decides the fault for each request. Implementations must be safe
// for concurrent use — the proxy calls Fault from every request goroutine.
type Injector interface {
	Fault(r *http.Request) Fault
}

// InjectorFunc adapts a function to the Injector interface.
type InjectorFunc func(r *http.Request) Fault

// Fault implements Injector.
func (f InjectorFunc) Fault(r *http.Request) Fault { return f(r) }

// Script is a deterministic Injector: request i receives fault i, and
// requests past the end of the script pass through clean. Probe traffic can
// be excluded so a script counts only scoring requests.
type Script struct {
	// Faults is consumed one entry per matching request, in order.
	Faults []Fault
	// Match, when non-nil, selects which requests consume script entries;
	// others pass through clean. Use it to spare /readyz probes.
	Match func(r *http.Request) bool

	mu   sync.Mutex
	next int
}

// Fault implements Injector.
func (s *Script) Fault(r *http.Request) Fault {
	if s.Match != nil && !s.Match(r) {
		return Fault{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= len(s.Faults) {
		return Fault{}
	}
	f := s.Faults[s.next]
	s.next++
	return f
}

// ScoringOnly is a Script.Match that spares health probes: only the POST
// scoring endpoints consume script entries.
func ScoringOnly(r *http.Request) bool { return r.Method == http.MethodPost }

// Proxy is a fault-injecting reverse proxy in front of one backend. Mount
// its handler where the router expects the replica; script it with
// SetInjector and SetDown.
type Proxy struct {
	target *url.URL
	rp     *httputil.ReverseProxy
	inj    atomic.Value // injectorBox — one concrete type, so any Injector swaps in
	down   atomic.Bool
}

type injectorBox struct{ i Injector }

// NewProxy builds a proxy forwarding to the backend at target (a base URL).
func NewProxy(target string) (*Proxy, error) {
	u, err := url.Parse(target)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("chaos: invalid target %q", target)
	}
	p := &Proxy{target: u, rp: httputil.NewSingleHostReverseProxy(u)}
	// A dead backend must look dead, not like a gateway: abort the
	// connection instead of answering 502.
	p.rp.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		panic(http.ErrAbortHandler)
	}
	p.SetInjector(nil)
	return p, nil
}

// SetInjector replaces the fault source; nil restores the clean pass-through.
func (p *Proxy) SetInjector(i Injector) {
	if i == nil {
		i = InjectorFunc(func(*http.Request) Fault { return Fault{} })
	}
	p.inj.Store(injectorBox{i})
}

// SetDown blackouts the proxy: while down, every request — probes included —
// has its connection severed with no response, exactly what a kill -9 of the
// replica process looks like to callers. SetDown(false) "restarts" it.
func (p *Proxy) SetDown(down bool) { p.down.Store(down) }

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.down.Load() {
		panic(http.ErrAbortHandler)
	}
	f := p.inj.Load().(injectorBox).i.Fault(r)
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		defer t.Stop()
		select {
		case <-r.Context().Done():
			return
		case <-t.C:
		}
	}
	if f.Drop || p.down.Load() {
		panic(http.ErrAbortHandler)
	}
	if f.Status != 0 {
		if f.RetryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", f.RetryAfter))
		}
		if f.ShedReason != "" {
			w.Header().Set("X-Shed-Reason", f.ShedReason)
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(f.Status)
		fmt.Fprintf(w, "chaos: injected %d\n", f.Status)
		return
	}
	p.rp.ServeHTTP(w, r)
}
