package registry

import (
	"container/list"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

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
	// Base is the template for each tenant's single-tenant registry. Root,
	// Registry and Log are overridden per tenant: every tenant registry gets
	// a private metrics registry so two tenants publishing the same version
	// label cannot merge their per-version series.
	Base Config
	// Sizer estimates a loaded scorer's resident bytes for the LRU budget.
	// nil charges 8 bytes per model parameter (and a small constant for
	// weightless diversifier versions).
	Sizer func(engine.Scorer) int64
	// Log receives operational messages; nil uses the Base config's logger
	// defaulting.
	Log func(format string, args ...any)
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
			"Tenant model registries currently resident in memory."),
		residentBytes: r.Gauge("rapid_tenant_resident_bytes",
			"Estimated parameter bytes of all resident tenant models."),
		loads: r.Counter("rapid_tenant_loads_total",
			"Tenant registries opened and activated (first request or reload after eviction)."),
		evictions: r.Counter("rapid_tenant_evictions_total",
			"Tenant registries evicted by the residency budget (LRU)."),
	}
}

// resident is one loaded tenant. Eviction closes the registry but cannot
// invalidate requests already holding one of its pins: pins are immutable
// snapshots, so an in-flight request keeps scoring against the model it
// resolved even while the tenant is being closed underneath.
type resident struct {
	name  string
	reg   *Registry
	bytes int64
	elem  *list.Element
}

// Multi implements the engine's TenantSource over a directory of per-tenant
// version stores: Root/<tenant>/<version>/. Tenants load lazily on first
// resolution (open the sub-registry, activate its newest version, warm it
// up) and stay resident until the LRU budget pushes them out. Resolution of
// a resident tenant is a map lookup under a mutex that is never held across
// a load — the engine resolves the tenant before the request's deadline
// exists, so a stranger's cold load must not be able to stall it. Only a
// cold tenant pays the load, and cold loads serialize — one tenant warming
// up cannot race another into a budget the eviction loop has not settled
// yet.
type Multi struct {
	cfg MultiConfig
	met *tenantMetrics

	// loadMu serializes cold loads (and Close) with each other. Lock order:
	// loadMu, then mu.
	loadMu sync.Mutex

	// mu guards the residency accounting below, and nothing slower.
	mu    sync.Mutex
	res   map[string]*resident
	lru   *list.List // front = least recently used
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
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.Sizer == nil {
		cfg.Sizer = scorerBytes
	}
	return &Multi{
		cfg: cfg,
		met: newTenantMetrics(reg),
		res: make(map[string]*resident),
		lru: list.New(),
	}, nil
}

// scorerBytes is the default residency estimator: 8 bytes per parameter for
// neural models, a nominal constant for weightless diversifier adapters.
func scorerBytes(sc engine.Scorer) int64 {
	if m, ok := sc.(interface{ ParamSet() *nn.ParamSet }); ok {
		return int64(m.ParamSet().NumParams()) * 8
	}
	return 4 << 10
}

// Tenant implements the engine's TenantSource: it resolves name to that
// tenant's registry, loading it on first use. Unknown or invalid names
// error; the engine converts any failure into its unknown-tenant shape.
func (m *Multi) Tenant(name string) (engine.Provider, error) {
	// Tenant names are path components chosen by request bodies — the same
	// trust boundary as version labels, so the same validation.
	if err := ValidLabel(name); err != nil {
		return nil, fmt.Errorf("unknown tenant %q: %w", name, err)
	}
	if reg := m.lookup(name); reg != nil {
		return reg, nil
	}
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	// Of two first requests for one tenant, the second finds it resident here.
	if reg := m.lookup(name); reg != nil {
		return reg, nil
	}
	rt, err := m.load(name)
	if err != nil {
		return nil, err
	}
	for _, victim := range m.admit(rt) {
		victim.reg.Close()
	}
	return rt.reg, nil
}

// lookup returns a resident tenant's registry and refreshes its recency, or
// nil for a tenant that is not resident.
func (m *Multi) lookup(name string) *Registry {
	m.mu.Lock()
	defer m.mu.Unlock()
	rt, ok := m.res[name]
	if !ok {
		return nil
	}
	m.lru.MoveToBack(rt.elem)
	return rt.reg
}

// load opens and activates one tenant under m.loadMu — open, read the
// weights, warm up — without touching the residency accounting.
func (m *Multi) load(name string) (*resident, error) {
	dir := filepath.Join(m.cfg.Root, name)
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return nil, fmt.Errorf("unknown tenant %q: no store at %s", name, dir)
	}
	cfg := m.cfg.Base
	cfg.Root = dir
	cfg.Registry = obs.NewRegistry() // private: see MultiConfig.Base
	base := m.cfg.Log
	if base == nil {
		base = m.cfg.Base.Log
	}
	if base == nil {
		base = log.Printf
	}
	cfg.Log = func(format string, args ...any) {
		base("tenant %s: "+format, append([]any{name}, args...)...)
	}
	reg, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", name, err)
	}
	label, err := reg.ActivateLatest()
	if err != nil {
		reg.Close()
		return nil, fmt.Errorf("tenant %q: activate: %w", name, err)
	}
	rt := &resident{name: name, reg: reg, bytes: m.cfg.Sizer(reg.Active().Scorer)}
	cfg.Log("resident (version %s, ~%d bytes)", label, rt.bytes)
	return rt, nil
}

// admit makes a loaded tenant resident, then unlinks least-recently-used
// tenants until the residency budget holds again and returns them for the
// caller to close once m.mu is released. rt — the tenant that just loaded —
// is never a victim even if it alone exceeds the byte budget: a tenant too
// large to coexist with others must still be servable on its own.
func (m *Multi) admit(rt *resident) (victims []*resident) {
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
		victims = append(victims, m.unlink(victim))
	}
	m.publishGauges()
	return victims
}

// unlink takes one resident tenant out of the accounting under m.mu. Its
// registry is still open: the caller closes it.
func (m *Multi) unlink(rt *resident) *resident {
	m.lru.Remove(rt.elem)
	delete(m.res, rt.name)
	m.bytes -= rt.bytes
	m.met.evictions.Inc()
	return rt
}

func (m *Multi) publishGauges() {
	m.met.resident.Set(float64(len(m.res)))
	m.met.residentBytes.Set(float64(m.bytes))
}

// Resident reports the currently resident tenant count and estimated bytes.
func (m *Multi) Resident() (tenants int, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.res), m.bytes
}

// Close evicts every resident tenant. Calling Tenant after Close reloads —
// a Multi has no terminal state of its own; Close exists so a shutting-down
// process can drain tenant shadow pools deterministically.
func (m *Multi) Close() {
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	m.mu.Lock()
	var all []*resident
	for m.lru.Front() != nil {
		all = append(all, m.unlink(m.lru.Front().Value.(*resident)))
	}
	m.publishGauges()
	m.mu.Unlock()
	for _, rt := range all {
		rt.reg.Close()
	}
}
