package engine

// defaultTenant is the metric label for requests that name no tenant — they
// are served by the engine's own provider.
const defaultTenant = "default"

// TenantSource resolves tenant names to providers. It is the multi-tenancy
// seam: registry.Multi implements it with lazily loaded, warmed-up per-tenant
// pins under an LRU memory budget. Implementations must be safe for
// concurrent use and should return an error (wrapped or plain) for names they
// cannot serve — the engine converts any failure into *UnknownTenantError.
//
// A returned Provider must stay usable for the duration of the request that
// resolved it even if the source later evicts the tenant: providers hand out
// immutable Pinned snapshots, so an in-flight request keeps scoring against
// its pin after the tenant is gone.
type TenantSource interface {
	Tenant(name string) (Provider, error)
}
