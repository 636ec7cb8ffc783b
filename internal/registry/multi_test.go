package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rerank"
	"repro/internal/serve"
)

// newTestMulti builds a Multi over a temp root with the stub loader: each
// tenant directory gets one fake version whose manifest names the tenant's
// store, and every stub scorer is weightless, charged weightlessBytes, so the
// byte budget is exact arithmetic.
func newTestMulti(t *testing.T, tenants []string, mutate func(*MultiConfig)) (*Multi, *obs.Registry) {
	t.Helper()
	root := t.TempDir()
	for _, name := range tenants {
		fakeVersionDir(t, filepath.Join(root, name), "v1")
	}
	reg := obs.NewRegistry()
	cfg := MultiConfig{
		Root:     root,
		Registry: reg,
		Loader: func(modelPath string) (engine.Scorer, engine.Manifest, error) {
			store := filepath.Base(filepath.Dir(filepath.Dir(modelPath)))
			return stubScorer{name: labelFromModelPath(modelPath)},
				engine.Manifest{Dataset: store, Config: testGeometry()}, nil
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, reg
}

func counterValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, snap := range reg.Snapshot() {
		if snap.Name == name {
			return snap.Value
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestMultiTenantResidencyAndLRU is the multi-tenancy acceptance test:
// three tenants stay resident together under the byte budget, a fourth
// evicts the least-recently-used one (recency refreshed by resolution, not
// insertion order), and the evicted tenant reloads transparently on its
// next request.
func TestMultiTenantResidencyAndLRU(t *testing.T) {
	m, reg := newTestMulti(t, []string{"acme", "beta", "corp", "dyne"},
		func(cfg *MultiConfig) { cfg.MaxResidentBytes = 3 * weightlessBytes }) // room for exactly 3

	// Three distinct tenants resolve and stay resident concurrently.
	for _, name := range []string{"acme", "beta", "corp"} {
		p, err := m.Tenant(name)
		if err != nil {
			t.Fatalf("tenant %s: %v", name, err)
		}
		if pin := p.Active(); pin.Version != "v1" || pin.Scorer == nil {
			t.Fatalf("tenant %s activated %+v", name, pin)
		}
	}
	if n, b := m.Resident(); n != 3 || b != 3*weightlessBytes {
		t.Fatalf("resident %d tenants / %d bytes, want 3 / %d", n, b, 3*weightlessBytes)
	}
	if got := counterValue(t, reg, "rapid_tenant_loads_total"); got != 3 {
		t.Fatalf("loads_total = %v, want 3", got)
	}

	// A resident tenant resolves without reloading, and each tenant serves
	// its own store (the stub manifest names the store it was loaded from).
	for _, name := range []string{"acme", "beta"} {
		p, err := m.Tenant(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Active().Manifest.Dataset; got != name {
			t.Fatalf("tenant %s serves the store of %s", name, got)
		}
	}
	if got := counterValue(t, reg, "rapid_tenant_loads_total"); got != 3 {
		t.Fatalf("resident re-resolution reloaded: loads_total = %v", got)
	}

	// Touch acme and beta so corp is now the LRU victim; dyne's load must
	// evict corp — and only corp.
	if _, err := m.Tenant("acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tenant("beta"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tenant("dyne"); err != nil {
		t.Fatal(err)
	}
	if n, b := m.Resident(); n != 3 || b != 3*weightlessBytes {
		t.Fatalf("after eviction: %d tenants / %d bytes, want 3 / %d", n, b, 3*weightlessBytes)
	}
	if got := counterValue(t, reg, "rapid_tenant_evictions_total"); got != 1 {
		t.Fatalf("evictions_total = %v, want 1", got)
	}

	// The evicted tenant reloads on demand (a fresh load, not a cache hit).
	if _, err := m.Tenant("corp"); err != nil {
		t.Fatalf("evicted tenant did not reload: %v", err)
	}
	if got := counterValue(t, reg, "rapid_tenant_loads_total"); got != 5 {
		t.Fatalf("loads_total = %v, want 5 (4 cold + 1 reload)", got)
	}
	if got := counterValue(t, reg, "rapid_tenant_evictions_total"); got != 2 {
		t.Fatalf("evictions_total = %v, want 2", got)
	}
}

// TestMultiTenantCountBound: MaxResident bounds residency by count when no
// byte budget is set.
func TestMultiTenantCountBound(t *testing.T) {
	m, _ := newTestMulti(t, []string{"a", "b", "c"},
		func(cfg *MultiConfig) { cfg.MaxResident = 2 })
	for _, name := range []string{"a", "b", "c"} {
		if _, err := m.Tenant(name); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := m.Resident(); n != 2 {
		t.Fatalf("resident %d tenants, want 2", n)
	}
}

// TestMultiTenantUnknownAndInvalid: absent stores and path-escaping names
// both fail without touching the filesystem outside Root.
func TestMultiTenantUnknownAndInvalid(t *testing.T) {
	m, _ := newTestMulti(t, []string{"real"}, nil)
	for _, name := range []string{"ghost", "../real", "a/b", ".hidden", ""} {
		if _, err := m.Tenant(name); err == nil {
			t.Fatalf("tenant %q resolved", name)
		} else if !strings.Contains(err.Error(), "unknown tenant") {
			t.Fatalf("tenant %q error %v does not say unknown tenant", name, err)
		}
	}
	if n, _ := m.Resident(); n != 0 {
		t.Fatalf("failed resolutions left %d tenants resident", n)
	}
}

// TestMultiTenantActivationFailureNotResident: a tenant directory with no
// committed version fails to activate and must not leak residency.
func TestMultiTenantActivationFailureNotResident(t *testing.T) {
	m, _ := newTestMulti(t, []string{"good"}, nil)
	if err := os.MkdirAll(filepath.Join(m.cfg.Root, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tenant("empty"); err == nil {
		t.Fatal("version-less tenant activated")
	}
	if _, err := m.Tenant("good"); err != nil {
		t.Fatal(err)
	}
	if n, _ := m.Resident(); n != 1 {
		t.Fatalf("resident %d tenants, want 1", n)
	}
}

// TestMultiOversizedTenantStaysServable: one tenant bigger than the whole
// byte budget still loads (evicting everything else) — the budget bounds
// coexistence, not serviceability.
func TestMultiOversizedTenantStaysServable(t *testing.T) {
	// The huge tenant's store publishes "vbig", served by a real RAPID model
	// charged for its parameters; the small tenant's stub is weightless.
	big := core.New(testGeometry())
	bigBytes := int64(big.Params().NumParams()) * 8
	m, _ := newTestMulti(t, []string{"small"}, func(cfg *MultiConfig) {
		cfg.MaxResidentBytes = weightlessBytes + 1
		stub := cfg.Loader
		cfg.Loader = func(modelPath string) (engine.Scorer, engine.Manifest, error) {
			if labelFromModelPath(modelPath) == "vbig" {
				return big, engine.Manifest{Dataset: "vbig", Config: testGeometry()}, nil
			}
			return stub(modelPath)
		}
	})
	if bigBytes <= m.cfg.MaxResidentBytes {
		t.Fatalf("huge tenant's %d bytes fit the %d-byte budget", bigBytes, m.cfg.MaxResidentBytes)
	}
	fakeVersionDir(t, filepath.Join(m.cfg.Root, "huge"), "vbig")
	if _, err := m.Tenant("small"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tenant("huge"); err != nil {
		t.Fatalf("over-budget tenant unservable: %v", err)
	}
	if n, b := m.Resident(); n != 1 || b != bigBytes {
		t.Fatalf("resident %d / %d bytes, want the oversized tenant alone (%d bytes)", n, b, bigBytes)
	}
}

// TestMultiResidentTenantNotBlockedByColdLoad: the engine resolves a tenant
// before the request's deadline exists, so a resident tenant must resolve
// while a stranger's cold load — scan, read, warm up — is still running; and
// two first requests for one cold tenant load it once.
func TestMultiResidentTenantNotBlockedByColdLoad(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	m, reg := newTestMulti(t, []string{"hot", "cold"}, func(cfg *MultiConfig) {
		stub := cfg.Loader
		cfg.Loader = func(modelPath string) (engine.Scorer, engine.Manifest, error) {
			if strings.Contains(filepath.ToSlash(modelPath), "/cold/") {
				close(entered) // a second load of cold would panic here
				<-release
			}
			return stub(modelPath)
		}
	})
	if _, err := m.Tenant("hot"); err != nil {
		t.Fatal(err)
	}
	resolve := func(name string, done chan<- error) {
		_, err := m.Tenant(name)
		done <- err
	}
	coldDone, hotDone := make(chan error, 2), make(chan error, 1)
	go resolve("cold", coldDone)
	<-entered
	go resolve("cold", coldDone) // queues behind the load in progress
	go resolve("hot", hotDone)
	select {
	case err := <-hotDone:
		if err != nil {
			t.Errorf("resident tenant: %v", err)
		}
	case <-time.After(100 * time.Millisecond):
		t.Error("resident tenant did not resolve within 100ms of a stranger's cold load starting")
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-coldDone; err != nil {
			t.Errorf("cold tenant: %v", err)
		}
	}
	if got := counterValue(t, reg, "rapid_tenant_loads_total"); got != 2 {
		t.Errorf("loads_total = %v, want 2 (hot, and cold once)", got)
	}
}

// TestMultiTenantServingEndToEnd connects Multi to a real engine: two
// tenants, each with one published tiny RAPID version, behind
// serve.NewServer. A tenant request scores bitwise what engine.LoadModel of
// that tenant's version scores, an unknown tenant gets the unknown_tenant
// answer, and — with room for one resident tenant — a request holding a pin
// finishes correctly while another tenant's load evicts its tenant.
func TestMultiTenantServingEndToEnd(t *testing.T) {
	root := t.TempDir()
	for i, name := range []string{"acme", "beta"} {
		geo := testGeometry()
		geo.Seed = int64(i + 1)
		if _, err := Publish(filepath.Join(root, name), "v1", core.New(geo).Params(),
			engine.Manifest{Dataset: name, Config: geo}); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	multi, err := NewMulti(MultiConfig{Root: root, MaxResident: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	def, defMan, err := engine.LoadModel(ModelPath(filepath.Join(root, "beta"), "v1"))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(def, defMan, serve.Config{
		Registry: reg,
		Tenants:  multi,
		Budget:   10 * time.Second, // a held request must finish, not degrade
		Batch:    engine.BatchConfig{Workers: 2},
	})
	var hold atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	srv.Faults = &engine.FaultHooks{Before: func(context.Context, *rerank.Instance) error {
		if hold.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return nil
	}}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := syntheticGolden(testGeometry(), 1, 6)[0]
	post := func(tenant string) (int, []byte) {
		r := req
		r.Tenant = tenant
		body, err := json.Marshal(r)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		resp, err := http.Post(ts.URL+"/v1/rerank", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}
	// want scores req the way the tenant's published version scores it
	// outside any server: item id → score bits.
	want := func(tenant string) map[int]uint64 {
		model, man, err := engine.LoadModel(ModelPath(filepath.Join(root, tenant), "v1"))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := engine.ToInstance(man.Config, &req)
		if err != nil {
			t.Fatal(err)
		}
		scores, err := model.Score(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		bits := map[int]uint64{}
		for i, id := range inst.Items {
			bits[id] = math.Float64bits(scores[i])
		}
		return bits
	}
	check := func(tenant string, status int, body []byte) {
		t.Helper()
		if status != http.StatusOK {
			t.Fatalf("tenant %s: status %d: %s", tenant, status, body)
		}
		var rr engine.Response
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Degraded || rr.ModelVersion != "v1" || len(rr.Ranked) != len(req.Items) {
			t.Fatalf("tenant %s: %+v", tenant, rr)
		}
		bits := want(tenant)
		for i, id := range rr.Ranked {
			if math.Float64bits(rr.Scores[i]) != bits[id] {
				t.Fatalf("tenant %s: item %d scored %v, the published version scores %v",
					tenant, id, rr.Scores[i], math.Float64frombits(bits[id]))
			}
		}
	}
	acme, beta := want("acme"), want("beta")
	if fmt.Sprint(acme) == fmt.Sprint(beta) {
		t.Fatal("the two tenants' models score identically; the test could not tell them apart")
	}

	status, body := post("acme")
	check("acme", status, body)

	status, body = post("ghost")
	msg, _ := json.Marshal(fmt.Sprintf(`unknown tenant "ghost": unknown tenant "ghost": no store at %s`,
		filepath.Join(root, "ghost")))
	if wantBody := `{"error":{"code":"unknown_tenant","message":` + string(msg) + "}}\n"; status != http.StatusNotFound || string(body) != wantBody {
		t.Fatalf("unknown tenant: status %d body %s, want 404 %s", status, body, wantBody)
	}

	// Hold an acme request after it pinned its model, load beta into the one
	// resident slot (evicting acme), then let the held request finish.
	hold.Store(true)
	held := make(chan struct{})
	var heldStatus int
	var heldBody []byte
	go func() {
		defer close(held)
		heldStatus, heldBody = post("acme")
	}()
	<-entered
	status, body = post("beta")
	check("beta", status, body)
	if n, _ := multi.Resident(); n != 1 {
		t.Fatalf("%d tenants resident, want 1", n)
	}
	if got := counterValue(t, reg, "rapid_tenant_evictions_total"); got != 1 {
		t.Fatalf("evictions_total = %v, want 1 (acme)", got)
	}
	close(release)
	<-held
	check("acme", heldStatus, heldBody)
}

// Resident reports the currently resident tenant count and estimated bytes.
func (m *Multi) Resident() (tenants int, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.res), m.bytes
}
