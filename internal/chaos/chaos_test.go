package chaos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func backend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "real\n")
	}))
	t.Cleanup(srv.Close)
	return srv
}

func proxyFor(t *testing.T, target string) (*Proxy, *httptest.Server) {
	t.Helper()
	p, err := NewProxy(target)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	return p, front
}

func get(t *testing.T, url string) (*http.Response, string, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, string(body), nil
}

func TestProxyPassThrough(t *testing.T) {
	p, front := proxyFor(t, backend(t).URL)
	resp, body, err := get(t, front.URL+"/x")
	if err != nil || resp.StatusCode != http.StatusOK || body != "real\n" {
		t.Fatalf("clean pass-through: %v %v %q", err, resp, body)
	}
	p.SetInjector(nil) // nil restores pass-through, must not panic
	if _, _, err := get(t, front.URL+"/x"); err != nil {
		t.Fatal(err)
	}
}

func TestProxyInjectedStatus(t *testing.T) {
	p, front := proxyFor(t, backend(t).URL)
	p.SetInjector(InjectorFunc(func(*http.Request) Fault {
		return Fault{Status: 429, RetryAfter: 2, ShedReason: "backpressure"}
	}))
	resp, _, err := get(t, front.URL+"/x")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 429 {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "2" || resp.Header.Get("X-Shed-Reason") != "backpressure" {
		t.Fatalf("shed headers missing: %v", resp.Header)
	}
}

func TestProxyDelay(t *testing.T) {
	p, front := proxyFor(t, backend(t).URL)
	p.SetInjector(InjectorFunc(func(*http.Request) Fault {
		return Fault{Delay: 50 * time.Millisecond}
	}))
	start := time.Now()
	if _, _, err := get(t, front.URL+"/x"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("request returned in %v, before the injected delay", d)
	}
}

func TestProxyDropAndDown(t *testing.T) {
	p, front := proxyFor(t, backend(t).URL)
	p.SetInjector(InjectorFunc(func(*http.Request) Fault { return Fault{Drop: true} }))
	if _, _, err := get(t, front.URL+"/x"); err == nil {
		t.Fatal("dropped connection produced a response")
	}
	p.SetInjector(nil)

	p.SetDown(true)
	if !p.Down() {
		t.Fatal("Down not reported")
	}
	if _, _, err := get(t, front.URL+"/x"); err == nil {
		t.Fatal("down proxy produced a response")
	}
	p.SetDown(false)
	if resp, _, err := get(t, front.URL+"/x"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted proxy: %v %v", err, resp)
	}
}

func TestProxyDeadBackendLooksDead(t *testing.T) {
	be := backend(t)
	_, front := proxyFor(t, be.URL)
	be.Close()
	if _, _, err := get(t, front.URL+"/x"); err == nil {
		t.Fatal("dead backend answered through the proxy")
	}
}

func TestScript(t *testing.T) {
	s := &Script{
		Faults: []Fault{{Status: 500}, {Status: 429}},
		Match:  ScoringOnly,
	}
	probe := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	if f := s.Fault(probe); f != (Fault{}) {
		t.Fatalf("probe consumed a script entry: %+v", f)
	}
	score := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/rerank", strings.NewReader("{}"))
	}
	if f := s.Fault(score()); f.Status != 500 {
		t.Fatalf("first scripted fault %+v", f)
	}
	if f := s.Fault(score()); f.Status != 429 {
		t.Fatalf("second scripted fault %+v", f)
	}
	if s.Remaining() != 0 {
		t.Fatalf("remaining %d, want 0", s.Remaining())
	}
	if f := s.Fault(score()); f != (Fault{}) {
		t.Fatalf("exhausted script still injecting: %+v", f)
	}
}

// Remaining reports how many scripted faults have not fired yet.
func (s *Script) Remaining() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.Faults) - s.next
}

// Down reports whether the proxy is blacked out.
func (p *Proxy) Down() bool { return p.down.Load() }
