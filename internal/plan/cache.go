package plan

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// nShards spreads the cache's lock across independent shards so a
// many-core server hammering mixed shapes does not serialize on one
// mutex. 16 is plenty: the critical section is a map lookup.
const nShards = 16

// Stats is a snapshot of cache traffic. Built counts executions of the
// build function — the singleflight guarantee is Built == number of
// distinct keys ever requested, regardless of concurrency.
type Stats struct {
	Hits   int64 // found ready (or joined an in-flight build)
	Misses int64 // initiated a build
	Built  int64 // build functions actually run
}

// HitRate returns Hits / (Hits + Misses), or 0 before any traffic.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a sharded, singleflight-deduplicated memoization table. The
// engine keys it by Key, the comparable form of a plan request, so a
// warm hit hashes no fingerprint. Concurrent Get calls for the same key
// run the build function exactly once; the losers block until it
// completes and share the result. Only successful values stay
// memoized: a failed build propagates its error to every waiter and is
// then forgotten, so one rejected plan (say, tampered bytes handed to
// LoadPlan) does not poison its key against a later good build.
type Cache[K comparable, V any] struct {
	seed   maphash.Seed
	hash   func(maphash.Seed, K) uint64
	shards [nShards]cacheShard[K, V]
	hits   atomic.Int64
	misses atomic.Int64
	built  atomic.Int64
}

type cacheShard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*cacheEntry[V]
}

type cacheEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewCache returns an empty cache whose keys hash to shards with hash:
// HashKey for plan Keys, maphash.String for strings.
func NewCache[K comparable, V any](hash func(maphash.Seed, K) uint64) *Cache[K, V] {
	c := &Cache[K, V]{seed: maphash.MakeSeed(), hash: hash}
	for i := range c.shards {
		c.shards[i].m = make(map[K]*cacheEntry[V])
	}
	return c
}

func (c *Cache[K, V]) shard(key K) *cacheShard[K, V] {
	return &c.shards[c.hash(c.seed, key)%nShards]
}

// Get returns the cached value for key, building it with build on first
// request. Exactly one goroutine builds per key; the rest wait.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (V, error) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		s.mu.Unlock()
		c.hits.Add(1)
		<-e.done
		return e.val, e.err
	}
	e := &cacheEntry[V]{done: make(chan struct{})}
	s.m[key] = e
	s.mu.Unlock()

	c.misses.Add(1)
	c.built.Add(1)
	e.val, e.err = build()
	close(e.done)
	if e.err != nil {
		s.mu.Lock()
		if s.m[key] == e {
			delete(s.m, key)
		}
		s.mu.Unlock()
	}
	return e.val, e.err
}

// Lookup returns the completed value for key without building. ok is
// false when the key is absent, still building, or failed to build.
func (c *Cache[K, V]) Lookup(key K) (V, bool) {
	var zero V
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.m[key]
	s.mu.Unlock()
	if !ok {
		return zero, false
	}
	select {
	case <-e.done:
	default:
		return zero, false
	}
	if e.err != nil {
		return zero, false
	}
	return e.val, true
}

// Replace publishes val as the completed value for key, replacing any
// existing entry — the hot-swap the tiered planner uses to upgrade a
// heuristic tier-0 plan to the fully tuned one. Waiters already joined
// to the old entry keep the value they were promised (the entry they
// hold is untouched); every Get and Lookup after Replace returns val.
// In-flight executions holding the old value are unaffected: values
// are immutable from the cache's point of view, so a swap can never
// corrupt a caller mid-use.
func (c *Cache[K, V]) Replace(key K, val V) {
	e := &cacheEntry[V]{done: make(chan struct{}), val: val}
	close(e.done)
	s := c.shard(key)
	s.mu.Lock()
	s.m[key] = e
	s.mu.Unlock()
}

// Len reports how many keys the cache holds (including in-flight
// builds; failed builds are evicted when they complete).
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Built: c.built.Load()}
}
