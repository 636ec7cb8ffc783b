package engine

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/rerank"
)

// stateScorer is the optional encoded-user-state contract: score instances
// where states[i], when non-nil, replaces instance i's user-preference
// encoding, and return the states actually used so the caller can cache the
// fresh ones. *core.Model implements it; the scoring workers route through it
// — one instance a call — whenever the engine's state cache is enabled and
// the pinned scorer supports it.
type stateScorer interface {
	Scorer
	ScoreBatchStates(ctx context.Context, insts []*rerank.Instance, states []*core.UserState) ([][]float64, []*core.UserState, error)
}

// stateKey identifies one cached user state: the tenant that served the
// request, its historyKey and the model version that encoded the state. θ̂ is
// bitwise a function of what historyKey hashes, so one entry serves every
// slate a user is shown, and any change in their features or behavior is a
// miss. The version makes canary and post-promote traffic miss cleanly; the
// tenant keeps distinct resident scorers apart when their labels collide.
type stateKey struct {
	Tenant  string
	History uint64
	Version string
}

// hash folds the key into the 64 bits the cache's index is keyed by: FNV-1a
// over the two labels (0xff, which no UTF-8 label contains, closes each),
// then the history hash.
func (k stateKey) hash() uint64 {
	h := fnvOffset64
	for _, s := range [2]string{k.Tenant, k.Version} {
		for i := 0; i < len(s); i++ {
			h = h.octet(s[i])
		}
		h = h.octet(0xff)
	}
	return uint64(h.word(k.History))
}

// cacheEntry is one resident state with its budget charge, linked into the
// cache's recency ring.
type cacheEntry struct {
	key        stateKey
	st         *core.UserState
	size       int64
	prev, next *cacheEntry
}

// StateCache is a memory-budgeted LRU of encoded user states shared by all
// scoring workers. All operations take one short mutex hold; the cached
// *core.UserState values are immutable, so readers share them without
// copying. Eviction is strict LRU by total SizeBytes against the budget.
//
// A cache that fills at serving rate is mostly bookkeeping (θ̂ is 40 bytes
// at m = 5), so the bookkeeping is kept small: the index maps StateKey.hash
// to the entry — a 16-byte slot instead of the 48 bytes a StateKey-keyed one
// takes — and the entries are their own list nodes. An entry is a hit only
// when its full key matches; two keys that share a hash displace each other,
// which costs a miss and can never serve one key's state for another.
//
// A user seen once is not cached: a doorkeeper admits a key on its second
// Put. Most users of an open population never return, and each entry they
// left would hold memory until evicted, so resident memory tracked
// throughput rather than the returning population. The cost is one extra
// cold preference pass per returning user.
type StateCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	by     map[uint64]*cacheEntry
	ring   cacheEntry // sentinel: ring.next is the most recently used entry, ring.prev the least

	door     []uint64 // doorkeeper: one bit per doorBits-bit prefix of StateKey.hash
	doorSets int      // bits set since door was last cleared

	met *Metrics // hit/miss/deferral/eviction/invalidation counters, size gauges
}

// The doorkeeper is a table of 2^doorBits bits indexed by the top doorBits
// bits of StateKey.hash. It is cleared after doorResetAfter sets — at most
// 1/8 full, which bounds the share of first sightings a shared bit admits —
// and on flush.
const (
	doorBits       = 20
	doorResetAfter = 1 << 17
)

// newStateCache builds a cache bounded to budget bytes of encoded states.
func newStateCache(budget int64, met *Metrics) *StateCache {
	c := &StateCache{budget: budget, met: met, door: make([]uint64, 1<<doorBits/64)}
	c.reset()
	return c
}

// reset empties the index, the ring and the doorkeeper.
func (c *StateCache) reset() {
	c.by = map[uint64]*cacheEntry{}
	c.ring.prev, c.ring.next = &c.ring, &c.ring
	c.bytes = 0
	clear(c.door)
	c.doorSets = 0
}

// admit is the doorkeeper's verdict on a non-resident key that hashes to h:
// true if its bit is set (the key, or one sharing its prefix, was put
// since the last clear); otherwise it sets the bit and returns false.
func (c *StateCache) admit(h uint64) bool {
	i := h >> (64 - doorBits)
	w, bit := &c.door[i/64], uint64(1)<<(i%64)
	if *w&bit != 0 {
		return true
	}
	*w |= bit
	if c.doorSets++; c.doorSets == doorResetAfter {
		clear(c.door)
		c.doorSets = 0
	}
	return false
}

func (e *cacheEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// touch makes e the most recently used entry.
func (c *StateCache) touch(e *cacheEntry) {
	e.prev, e.next = &c.ring, c.ring.next
	e.prev.next, e.next.prev = e, e
}

// drop removes a resident entry from the ring, the index and the charge.
func (c *StateCache) drop(h uint64, e *cacheEntry) {
	e.unlink()
	delete(c.by, h)
	c.bytes -= e.size
	c.met.CacheEvictions.Inc()
}

// get returns the cached state for key, marking it most recently used.
func (c *StateCache) get(key stateKey) (*core.UserState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.by[key.hash()]
	if e == nil || e.key != key {
		c.met.CacheMisses.Inc()
		return nil, false
	}
	e.unlink()
	c.touch(e)
	c.met.CacheHits.Inc()
	return e.st, true
}

// put refreshes a resident key's state, or installs a key the doorkeeper has
// seen before, and evicts least-recently-used entries until the cache fits
// its budget. The first Put of a key only marks it seen. A state larger
// than the whole budget is not admitted.
func (c *StateCache) put(key stateKey, st *core.UserState) {
	if st == nil {
		return
	}
	size := int64(st.SizeBytes())
	if size > c.budget {
		return
	}
	h := key.hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.by[h]
	if (e == nil || e.key != key) && !c.admit(h) {
		c.met.CacheDeferred.Inc()
		return
	}
	if e != nil && e.key != key {
		c.drop(h, e) // another key with this hash: it gives way
		e = nil
	}
	if e != nil {
		c.bytes += size - e.size
		e.st, e.size = st, size
		e.unlink()
	} else {
		e = &cacheEntry{key: key, st: st, size: size}
		c.by[h] = e
		c.bytes += size
	}
	c.touch(e)
	for c.bytes > c.budget && c.ring.prev != &c.ring {
		lru := c.ring.prev
		c.drop(lru.key.hash(), lru)
	}
	c.met.CacheEntries.Set(float64(len(c.by)))
	c.met.CacheBytes.Set(float64(c.bytes))
}

// flush drops every entry and forgets every first sighting. It is the
// model-lifecycle invalidation hook:
// wired to the registry's state transitions (load/promote/rollback), so no
// request can ever read a state across a model swap — even when a version
// label is reused for different artifacts.
func (c *StateCache) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.by)
	c.reset()
	if n > 0 {
		c.met.CacheInvalidations.Inc()
	}
	c.met.CacheEntries.Set(0)
	c.met.CacheBytes.Set(0)
}

// Stats reports the cache's resident entry count and byte size.
func (c *StateCache) Stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.by), c.bytes
}

// stateKeyFor derives a request's state-cache key: set only when the cache
// is enabled and the pinned scorer can consume encoded states, so the
// scoring workers never hash or probe the cache in vain. tenant is the
// resolved tenant label.
func (e *Engine) stateKeyFor(req *Request, tenant string, pin Pinned) (stateKey, bool) {
	if e.stateCache == nil {
		return stateKey{}, false
	}
	if _, ok := pin.Scorer.(stateScorer); !ok {
		return stateKey{}, false
	}
	return stateKey{Tenant: tenant, History: historyKey(req), Version: pin.Version}, true
}

// StateCache exposes the engine's state cache (nil when disabled) so a
// binary can wire lifecycle invalidation and report stats.
func (e *Engine) StateCache() *StateCache { return e.stateCache }

// FlushStateCache invalidates every cached user state; safe to call at any
// time, including with no cache configured. Wire it to the model registry's
// OnSwap hook so promote/rollback can never serve a stale encoded state.
func (e *Engine) FlushStateCache() {
	if e.stateCache != nil {
		e.stateCache.flush()
	}
}
