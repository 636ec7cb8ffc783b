// Package router is the fleet layer above internal/serve: a consistent-hash
// request router that shards users across N rapidserve replicas and keeps
// serving through the failures a real fleet sees — crashed replicas, slow
// nodes, shed load and mixed-version rollout windows.
//
// Requests are routed by the user key the serving layer also uses for canary
// splits (engine.UserKey, over the user features only), so a user's requests
// land on the same replica across retries, rollouts and fresh slates — the
// property that makes per-replica user-state caches and reproducible
// debugging possible. Around that stable ownership the router layers the
// robustness machinery:
//
//   - health probing via GET /readyz: ejection on probe failure, re-probe
//     with exponential backoff, re-admission through the circuit breaker's
//     half-open state;
//   - per-replica circuit breakers (closed → open on error-rate excess →
//     half-open probes → closed) so a sick-but-responsive replica is starved
//     of traffic before it drags the fleet's tail;
//   - retry on shed and failure with a capped, jittered backoff, honoring
//     Retry-After, bounded by a retry *budget* (a token bucket earning
//     credit per primary request) so retries cannot amplify an outage;
//   - hedged requests: when the owner has not answered within the hedge
//     delay, a second attempt starts on the next replica and the first
//     response wins (the loser is canceled). Hedging is restricted to the
//     scoring endpoints, which are idempotent reads;
//   - version-skew detection: replicas advertise their pinned model version
//     in the /readyz body; the router exposes mixed-version windows on
//     /metrics and GET /admin/fleet during rollouts.
package router

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is an immutable consistent-hash ring: each replica is placed at
// vnodes pseudo-random points (FNV-1a of "id#i"), and a key is owned by the
// first point clockwise from the key's hash. Virtual nodes smooth the load
// split (with tens of points per replica the imbalance is a few percent)
// and, when a replica is ejected, spread its keyspace across the survivors
// instead of dumping it all on one neighbor.
type ring struct {
	points []ringPoint
	n      int // replica count
}

type ringPoint struct {
	hash    uint64
	replica int // index into the router's replica slice
}

func newRing(ids []string, vnodes int) (*ring, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("router: no replicas")
	}
	seen := make(map[string]bool, len(ids))
	r := &ring{points: make([]ringPoint, 0, len(ids)*vnodes), n: len(ids)}
	for ri, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("router: empty replica id")
		}
		if seen[id] {
			return nil, fmt.Errorf("router: duplicate replica %q", id)
		}
		seen[id] = true
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", id, v)
			// FNV over near-identical strings clusters on the ring; the
			// splitmix64 finalizer spreads the points so 64 vnodes actually
			// buy an even keyspace split.
			r.points = append(r.points, ringPoint{hash: mix64(h.Sum64()), replica: ri})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r, nil
}

// owner returns the replica index owning key.
func (r *ring) owner(key uint64) int {
	return r.points[r.search(key)].replica
}

// sequence returns every replica index in ring order starting from the
// key's owner, deduplicated — the owner first, then the fallback order used
// for retries and hedges. The order is a deterministic function of the key,
// so a request's fallback replica is as stable as its owner.
func (r *ring) sequence(key uint64) []int {
	seq := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i, n := r.search(key), 0; n < len(r.points); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			seq = append(seq, p.replica)
			if len(seq) == r.n {
				break
			}
		}
	}
	return seq
}

// mix64 is the splitmix64 finalizer: a cheap bijective avalanche over the
// raw FNV hash. Unlike bandit.Mix64 it omits splitmix64's golden-ratio
// increment; adding it would move every ring point and so every user's
// replica.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// search finds the first ring point at or clockwise of key's hash. The key
// is FNV-1a over user features, whose last bytes barely reach its high bits
// (users that differ in one small integer feature would share an arc), so it
// goes through the same finalizer as the points.
func (r *ring) search(key uint64) int {
	h := mix64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the smallest point owns the top of the hash space
	}
	return i
}
