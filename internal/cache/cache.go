// Package cache holds the module's one LRU and its one singleflight,
// under the store's decoded-sketch cache and plan LRU and the server's
// rank result cache — the system's only result cache: a cluster
// coordinator keeps none. A caller decides what a key is and what
// an entry costs; this package keeps the bound, the recency order and the
// counters.
package cache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// LRU is a cost-bounded least-recently-used cache, safe for concurrent
// use. An entry costs what its caller passes to Add — bytes, or 1 for
// an entry-counted cache — and the resident sum never exceeds the
// bound. A nil *LRU is a disabled cache: every Get misses, Add retains
// nothing, and the counters stay zero.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	max   int64
	used  int64
	ll    *list.List // front = most recently used
	items map[K]*list.Element

	hits, misses, evictions int64
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// LRUStats snapshots an LRU's counters and footprint; Used is the
// summed cost of the resident entries.
type LRUStats struct {
	Hits, Misses, Evictions, Used int64
	Entries                       int
}

// NewLRU returns a cache bounded to max total cost. A bound below the
// cheapest entry admits nothing while still counting misses.
func NewLRU[K comparable, V any](max int64) *LRU[K, V] {
	return &LRU[K, V]{max: max, ll: list.New(), items: make(map[K]*list.Element)}
}

// Max returns the cost bound (0 for a nil cache).
func (c *LRU[K, V]) Max() int64 {
	if c == nil {
		return 0
	}
	return c.max
}

// Get returns the value under key, marking it most recently used.
func (c *LRU[K, V]) Get(key K) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		c.misses++
		return v, false
	}
	c.ll.MoveToFront(e)
	c.hits++
	return e.Value.(*entry[K, V]).val, true
}

// Add inserts or replaces the value under key at the given cost, then
// evicts from the cold end until the bound holds. An entry costlier
// than the whole bound is not admitted — admitting it would evict
// everything and still break used <= max — and it displaces any older
// value under its key, which the caller has just declared superseded.
func (c *LRU[K, V]) Add(key K, val V, cost int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if cost > c.max {
		if ok {
			c.remove(e)
		}
		return
	}
	if ok {
		ent := e.Value.(*entry[K, V])
		c.used += cost - ent.cost
		ent.val, ent.cost = val, cost
		c.ll.MoveToFront(e)
	} else {
		c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val, cost: cost})
		c.used += cost
	}
	// The entry just touched sits at the front and fits the bound on its
	// own, so the loop stops before reaching it.
	for c.used > c.max {
		c.remove(c.ll.Back())
		c.evictions++
	}
}

// SeenBefore is admission on second sight: it reports whether key is
// marked, and marks it with marker at cost if not, counting no hit or
// miss. A nil cache has seen nothing.
func (c *LRU[K, V]) SeenBefore(key K, marker V, cost int64) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	e, seen := c.items[key]
	if seen {
		c.ll.MoveToFront(e)
	}
	c.mu.Unlock()
	if !seen {
		c.Add(key, marker, cost)
	}
	return seen
}

// Delete drops the entry under key, if any. It is not an eviction.
func (c *LRU[K, V]) Delete(key K) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.remove(e)
	}
}

// DeleteFunc drops every entry for which del reports true. del runs
// under the cache's lock and must not call back into the cache.
func (c *LRU[K, V]) DeleteFunc(del func(K, V) bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.ll.Front(); e != nil; {
		next := e.Next()
		if ent := e.Value.(*entry[K, V]); del(ent.key, ent.val) {
			c.remove(e)
		}
		e = next
	}
}

func (c *LRU[K, V]) remove(e *list.Element) {
	ent := e.Value.(*entry[K, V])
	c.ll.Remove(e)
	delete(c.items, ent.key)
	c.used -= ent.cost
}

// Stats snapshots the counters (all zero for a nil cache).
func (c *LRU[K, V]) Stats() LRUStats {
	if c == nil {
		return LRUStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return LRUStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Used: c.used, Entries: c.ll.Len(),
	}
}

// Flights coalesces concurrent computations of one key: the first
// caller to Join is the leader and computes; callers that join before
// it calls Finish are waiters and receive its result R (an error
// outcome is just another R) without computing. A nil *Flights
// disables coalescing: every caller is a solo leader.
type Flights[K comparable, R any] struct {
	mu        sync.Mutex
	byKey     map[K]*Flight[R]
	coalesced atomic.Int64
}

// NewFlights returns an empty flight table.
func NewFlights[K comparable, R any]() *Flights[K, R] {
	return &Flights[K, R]{byKey: make(map[K]*Flight[R])}
}

// Flight is one in-progress computation shared by its participants.
type Flight[R any] struct {
	done chan struct{}

	// ctx is the computation context. It is cancelled when refs — the
	// number of requests still interested in the result — drops to
	// zero, so the leader's work aborts exactly when no caller is left
	// to receive the answer: a leader whose client disconnects does not
	// poison the waiters, while a flight nobody wants anymore stops and
	// frees what it holds.
	ctx    context.Context
	cancel context.CancelFunc
	refMu  sync.Mutex
	refs   int

	result R // valid after done closes
}

// Context is the context the leader computes under.
func (f *Flight[R]) Context() context.Context { return f.ctx }

// Done is closed once the leader has published the result.
func (f *Flight[R]) Done() <-chan struct{} { return f.done }

// Result returns the published result; call it only after Done closes.
func (f *Flight[R]) Result() R { return f.result }

// Join returns the in-progress flight for key, creating one (and
// electing the caller leader) if none exists. The caller must call
// release exactly once when it stops waiting (normally via defer); its
// own context rctx is watched too, so a caller whose client disconnects
// mid-wait releases automatically.
func (t *Flights[K, R]) Join(rctx context.Context, key K) (f *Flight[R], leader bool, release func()) {
	if t == nil {
		f = newFlight[R]()
		return f, true, f.join(rctx)
	}
	t.mu.Lock()
	f, ok := t.byKey[key]
	if !ok {
		f = newFlight[R]()
		t.byKey[key] = f
	}
	t.mu.Unlock()
	if ok {
		t.coalesced.Add(1)
	}
	return f, !ok, f.join(rctx)
}

func newFlight[R any]() *Flight[R] {
	ctx, cancel := context.WithCancel(context.Background())
	return &Flight[R]{done: make(chan struct{}), ctx: ctx, cancel: cancel}
}

// join registers one caller's interest in the flight and returns its
// release.
func (f *Flight[R]) join(rctx context.Context) (release func()) {
	f.refMu.Lock()
	f.refs++
	f.refMu.Unlock()
	var once sync.Once
	dec := func() {
		once.Do(func() {
			f.refMu.Lock()
			f.refs--
			last := f.refs == 0
			f.refMu.Unlock()
			if last {
				select {
				case <-f.done: // published; cancel frees nothing of value
				default:
					f.cancel()
				}
			}
		})
	}
	stop := context.AfterFunc(rctx, dec)
	return func() {
		stop()
		dec()
	}
}

// Finish unlinks the flight so later callers start a fresh computation,
// then publishes the result to the waiters. Unlink must precede
// publish: a waiter woken by publish may immediately retry and must not
// rejoin the spent flight.
func (t *Flights[K, R]) Finish(key K, f *Flight[R], result R) {
	if t != nil {
		t.mu.Lock()
		if t.byKey[key] == f {
			delete(t.byKey, key)
		}
		t.mu.Unlock()
	}
	f.result = result
	close(f.done)
	// The result is out, so this aborts nothing; it releases the
	// computation context's resources.
	f.cancel()
}

// Coalesced counts the callers that joined an existing flight.
func (t *Flights[K, R]) Coalesced() int64 {
	if t == nil {
		return 0
	}
	return t.coalesced.Load()
}
