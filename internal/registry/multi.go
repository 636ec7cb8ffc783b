package registry

import (
	"container/list"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/obs"
)

// MultiConfig parameterizes a multi-tenant model store. Root is required;
// every other field's zero value falls back to the listed default.
type MultiConfig struct {
	// Root is the tenant store directory: one subdirectory per tenant, each
	// an ordinary single-tenant version store (the layout rapidtrain's
	// -publish flag publishes into, one level deeper).
	Root string
	// MaxResidentBytes bounds the estimated parameter bytes of resident
	// tenants; resolving a tenant past the budget evicts least-recently-used
	// tenants first. 0 means no byte budget.
	MaxResidentBytes int64
	// MaxResident bounds the number of resident tenants regardless of size.
	// 0 means no count bound.
	MaxResident int
	// Registry receives the tenant residency metrics (rapid_tenant_resident,
	// rapid_tenant_resident_bytes, rapid_tenant_loads_total,
	// rapid_tenant_evictions_total). Pass the serving registry so /metrics
	// carries them; nil means a private one.
	Registry *obs.Registry
	// Loader loads one version's artifacts; nil uses engine.LoadScorer. It is
	// Config.Loader's seam, for the same tests.
	Loader func(modelPath string) (engine.Scorer, engine.Manifest, error)
}

// tenantMetrics is the residency metric set of a Multi. The engine's own
// rapid_tenant_requests_total / rapid_tenant_shed_total families count
// traffic; these count what that traffic costs in resident model memory.
type tenantMetrics struct {
	resident      *obs.Gauge
	residentBytes *obs.Gauge
	loads         *obs.Counter
	evictions     *obs.Counter
}

func newTenantMetrics(r *obs.Registry) *tenantMetrics {
	return &tenantMetrics{
		resident: r.Gauge("rapid_tenant_resident",
			"Tenant models currently resident in memory."),
		residentBytes: r.Gauge("rapid_tenant_resident_bytes",
			"Estimated parameter bytes of all resident tenant models."),
		loads: r.Counter("rapid_tenant_loads_total",
			"Tenant models loaded and warmed up (first request or reload after eviction)."),
		evictions: r.Counter("rapid_tenant_evictions_total",
			"Tenant models evicted by the residency budget (LRU)."),
	}
}

// resident is one loaded tenant: its newest version, warmed up and pinned.
// Eviction only drops the tenant from the accounting. A pin is an immutable
// snapshot, so a request already holding one keeps scoring against the model
// it resolved after its tenant is gone.
type resident struct {
	name     string
	provider engine.Provider
	bytes    int64
	elem     *list.Element
}

// Multi implements the engine's TenantSource over a directory of per-tenant
// version stores: Root/<tenant>/<version>/. A tenant loads lazily on first
// resolution — scan its store, load its newest version and warm it up, the
// same load path as Registry.Load — and stays resident until the LRU budget
// pushes it out. A tenant has no lifecycle of its own: it serves its newest
// version as of its load. Resolution of a resident tenant is a map lookup
// under a mutex that is never held across a load — the engine resolves the
// tenant before the request's deadline exists, so a stranger's cold load must
// not be able to stall it. Only a cold tenant pays the load, and cold loads
// serialize — one tenant warming up cannot race another into a budget the
// eviction loop has not settled yet.
type Multi struct {
	cfg MultiConfig
	met *tenantMetrics

	// loadMu serializes cold loads. Lock order: loadMu, then mu.
	loadMu sync.Mutex

	// mu guards the residency accounting below, and nothing slower.
	mu    sync.Mutex
	res   map[string]*resident
	lru   list.List // front = least recently used
	bytes int64
}

// NewMulti opens a multi-tenant store over cfg.Root. No tenant is loaded
// until first resolved.
func NewMulti(cfg MultiConfig) (*Multi, error) {
	if cfg.Root == "" {
		return nil, fmt.Errorf("registry: MultiConfig.Root is required")
	}
	if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
		return nil, fmt.Errorf("registry: create tenant root: %w", err)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Loader == nil {
		cfg.Loader = engine.LoadScorer
	}
	return &Multi{cfg: cfg, met: newTenantMetrics(cfg.Registry), res: make(map[string]*resident)}, nil
}

// weightlessBytes is the residency charge of a version with no parameters
// (a classic-diversifier adapter).
const weightlessBytes = 4 << 10

// scorerBytes is the residency estimate: 8 bytes per parameter for neural
// models, weightlessBytes for weightless diversifier adapters.
func scorerBytes(sc engine.Scorer) int64 {
	if m, ok := sc.(interface{ Params() *nn.ParamSet }); ok {
		return int64(m.Params().NumParams()) * 8
	}
	return weightlessBytes
}

// Tenant implements the engine's TenantSource: it resolves name to that
// tenant's pinned model, loading it on first use. Unknown or invalid names
// error; the engine converts any failure into its unknown-tenant shape.
func (m *Multi) Tenant(name string) (engine.Provider, error) {
	// Tenant names are path components chosen by request bodies — the same
	// trust boundary as version labels, so the same validation.
	if err := validLabel(name); err != nil {
		return nil, fmt.Errorf("unknown tenant %q: %w", name, err)
	}
	if p := m.lookup(name); p != nil {
		return p, nil
	}
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	// Of two first requests for one tenant, the second finds it resident here.
	if p := m.lookup(name); p != nil {
		return p, nil
	}
	rt, err := m.load(name)
	if err != nil {
		return nil, err
	}
	m.admit(rt)
	return rt.provider, nil
}

// lookup returns a resident tenant's pin and refreshes its recency, or nil
// for a tenant that is not resident.
func (m *Multi) lookup(name string) engine.Provider {
	m.mu.Lock()
	defer m.mu.Unlock()
	rt, ok := m.res[name]
	if !ok {
		return nil
	}
	m.lru.MoveToBack(rt.elem)
	return rt.provider
}

// load reads and warms one tenant's newest version under m.loadMu, without
// touching the residency accounting.
func (m *Multi) load(name string) (*resident, error) {
	dir := filepath.Join(m.cfg.Root, name)
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return nil, fmt.Errorf("unknown tenant %q: no store at %s", name, dir)
	}
	label, err := newest(dir)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", name, err)
	}
	v, err := loadVersion(m.cfg.Loader, dir, label, func(time.Duration) {})
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", name, err)
	}
	rt := &resident{
		name:     name,
		provider: engine.StaticProvider(engine.Pinned{Scorer: v.scorer, Manifest: v.man, Version: label}),
		bytes:    scorerBytes(v.scorer),
	}
	log.Printf("registry: tenant %s resident (version %s, ~%d bytes)", name, label, rt.bytes)
	return rt, nil
}

// admit makes a loaded tenant resident, then evicts least-recently-used
// tenants until the residency budget holds again. rt — the tenant that just
// loaded — is never a victim even if it alone exceeds the byte budget: a
// tenant too large to coexist with others must still be servable on its own.
func (m *Multi) admit(rt *resident) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rt.elem = m.lru.PushBack(rt)
	m.res[rt.name] = rt
	m.bytes += rt.bytes
	m.met.loads.Inc()
	for (m.cfg.MaxResident > 0 && len(m.res) > m.cfg.MaxResident) ||
		(m.cfg.MaxResidentBytes > 0 && m.bytes > m.cfg.MaxResidentBytes) {
		victim := m.lru.Front().Value.(*resident) // rt is in the list: never empty
		if victim == rt {
			break
		}
		m.lru.Remove(victim.elem)
		delete(m.res, victim.name)
		m.bytes -= victim.bytes
		m.met.evictions.Inc()
	}
	m.met.resident.Set(float64(len(m.res)))
	m.met.residentBytes.Set(float64(m.bytes))
}
