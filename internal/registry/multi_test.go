package registry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// newTestMulti builds a Multi over a temp root with the stub loader: each
// tenant directory gets one fake version, and every loaded scorer is sized
// at a fixed 100 bytes so the byte budget is exact arithmetic.
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
		Base: Config{
			Loader: func(modelPath string) (engine.Scorer, engine.Manifest, error) {
				label := labelFromModelPath(modelPath)
				return stubScorer{name: label},
					engine.Manifest{Dataset: label, Config: testGeometry()}, nil
			},
		},
		Sizer: func(engine.Scorer) int64 { return 100 },
		Log:   t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
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
		func(cfg *MultiConfig) { cfg.MaxResidentBytes = 300 }) // room for exactly 3

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
	if n, b := m.Resident(); n != 3 || b != 300 {
		t.Fatalf("resident %d tenants / %d bytes, want 3 / 300", n, b)
	}
	if got := counterValue(t, reg, "rapid_tenant_loads_total"); got != 3 {
		t.Fatalf("loads_total = %v, want 3", got)
	}

	// A resident tenant resolves without reloading, and each tenant serves
	// its own store (the stub scorer names its version path's label — the
	// manifests must differ per tenant only by store, not leak across).
	pa, err := m.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := m.Tenant("beta")
	if pa == pb {
		t.Fatal("distinct tenants resolved to the same provider")
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
	if n, b := m.Resident(); n != 3 || b != 300 {
		t.Fatalf("after eviction: %d tenants / %d bytes, want 3 / 300", n, b)
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
	m, _ := newTestMulti(t, []string{"small"}, func(cfg *MultiConfig) {
		cfg.MaxResidentBytes = 150
		// The stub scorer's name is its version label; the huge tenant's
		// store publishes "vbig" so the sizer can tell them apart.
		cfg.Sizer = func(sc engine.Scorer) int64 {
			if sc.Name() == "vbig" {
				return 1000
			}
			return 100
		}
	})
	fakeVersionDir(t, filepath.Join(m.cfg.Root, "huge"), "vbig")
	if _, err := m.Tenant("small"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tenant("huge"); err != nil {
		t.Fatalf("over-budget tenant unservable: %v", err)
	}
	if n, b := m.Resident(); n != 1 || b != 1000 {
		t.Fatalf("resident %d / %d bytes, want the oversized tenant alone", n, b)
	}
}

// TestMultiResidentTenantNotBlockedByColdLoad: the engine resolves a tenant
// before the request's deadline exists, so a resident tenant must resolve
// while a stranger's cold load — open, read, warm up — is still running; and
// two first requests for one cold tenant load it once.
func TestMultiResidentTenantNotBlockedByColdLoad(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	m, reg := newTestMulti(t, []string{"hot", "cold"}, func(cfg *MultiConfig) {
		stub := cfg.Base.Loader
		cfg.Base.Loader = func(modelPath string) (engine.Scorer, engine.Manifest, error) {
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
