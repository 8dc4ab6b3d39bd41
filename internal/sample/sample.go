// Package sample implements the sampling primitives the sketches are built
// from: reservoir sampling (Vitter's Algorithm R), k-minimum-values (KMV)
// selection over hashed keys, priority sampling (Duffield–Lund–Thorup),
// Bernoulli sampling, and without-replacement draws.
//
// Sketch-level semantics (coordination, per-key caps, aggregation) live in
// internal/core; this package only provides the mechanics.
package sample

import "math/rand"

// Reservoir maintains a uniform without-replacement sample of up to k items
// from a stream (Vitter's Algorithm R). The zero value is not usable; use
// NewReservoir.
type Reservoir[T any] struct {
	k     int
	seen  int
	items []T
	rng   *rand.Rand
}

// NewReservoir returns a reservoir of capacity k driven by rng.
func NewReservoir[T any](k int, rng *rand.Rand) *Reservoir[T] {
	if k <= 0 {
		panic("sample: reservoir capacity must be positive")
	}
	return &Reservoir[T]{k: k, rng: rng}
}

// Add offers one stream item to the reservoir.
func (r *Reservoir[T]) Add(item T) {
	r.seen++
	if len(r.items) < r.k {
		r.items = append(r.items, item)
		return
	}
	j := r.rng.Intn(r.seen)
	if j < r.k {
		r.items[j] = item
	}
}

// Items returns the current sample (order is arbitrary). The returned
// slice aliases internal storage.
func (r *Reservoir[T]) Items() []T { return r.items }

// kmvEntry pairs an item with its hash position used for ordering.
type kmvEntry[T any] struct {
	u    float64
	item T
}

// KMV retains the k items with the minimum hash values from a stream.
// Feeding the same (item, hash) universe in any order yields the same
// selection, which is what makes hash-based sampling coordinated across
// tables. Duplicate hash values are retained up to capacity.
type KMV[T any] struct {
	k int
	h []kmvEntry[T] // max-heap on u: the largest retained hash is evictable
}

// NewKMV returns a KMV selector of capacity k.
func NewKMV[T any](k int) *KMV[T] {
	if k <= 0 {
		panic("sample: KMV capacity must be positive")
	}
	return &KMV[T]{k: k}
}

// Offer considers an item whose hash position is u ∈ [0,1).
func (s *KMV[T]) Offer(u float64, item T) {
	if len(s.h) < s.k {
		s.h = append(s.h, kmvEntry[T]{u, item})
		for j := len(s.h) - 1; j > 0; { // sift up
			i := (j - 1) / 2
			if !(s.h[j].u > s.h[i].u) {
				break
			}
			s.h[i], s.h[j] = s.h[j], s.h[i]
			j = i
		}
		return
	}
	if u >= s.h[0].u {
		return
	}
	s.h[0] = kmvEntry[T]{u, item}
	siftDownKMV(s.h, 0)
}

// Threshold returns the largest retained hash value (the eviction
// boundary), or 1 if the selector is not yet full.
func (s *KMV[T]) Threshold() float64 {
	if len(s.h) < s.k {
		return 1
	}
	return s.h[0].u
}

// Items returns the retained items ordered by ascending hash value.
func (s *KMV[T]) Items() []T {
	out := make([]T, len(s.h))
	entries := append([]kmvEntry[T](nil), s.h...)
	// Heap-sort descending, fill from the back.
	for i := len(entries) - 1; i >= 0; i-- {
		out[i] = entries[0].item
		entries[0] = entries[len(entries)-1]
		entries = entries[:len(entries)-1]
		siftDownKMV(entries, 0)
	}
	return out
}

// siftDownKMV restores the heap below i. Like container/heap it takes the
// right child only when strictly larger, so layouts (and with them the
// order Items gives equal hashes) are what that package produced.
func siftDownKMV[T any](h []kmvEntry[T], i int) {
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(h) && h[l].u > h[largest].u {
			largest = l
		}
		if r < len(h) && h[r].u > h[largest].u {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}

// Len returns the number of retained items.
func (s *KMV[T]) Len() int { return len(s.h) }

// Priority selects k items by priority sampling (Duffield, Lund, Thorup):
// item i with weight w_i and uniform hash u_i gets priority q_i = w_i/u_i,
// and the k largest priorities win. Heavy items are selected with high
// probability while the hash keeps selection coordinated.
type Priority[T any] struct {
	neg KMV[T] // the k largest q are the k smallest −q
}

// NewPriority returns a priority sampler of capacity k.
func NewPriority[T any](k int) *Priority[T] {
	if k <= 0 {
		panic("sample: priority capacity must be positive")
	}
	return &Priority[T]{KMV[T]{k: k}}
}

// Offer considers an item with weight w > 0 and uniform hash u ∈ (0,1).
func (s *Priority[T]) Offer(w, u float64, item T) {
	if u <= 0 {
		u = 1e-18 // avoid division by zero from a pathological hash
	}
	s.neg.Offer(-w/u, item)
}

// Items returns the retained items (arbitrary order).
func (s *Priority[T]) Items() []T {
	out := make([]T, len(s.neg.h))
	for i, e := range s.neg.h {
		out[i] = e.item
	}
	return out
}

// Len returns the number of retained items.
func (s *Priority[T]) Len() int { return s.neg.Len() }

// Bernoulli returns the indices of a Bernoulli(p) sample of n items.
func Bernoulli(n int, p float64, rng *rand.Rand) []int {
	var out []int
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			out = append(out, i)
		}
	}
	return out
}

// WithoutReplacement returns k distinct indices drawn uniformly from
// {0..n−1} via a partial Fisher–Yates shuffle. If k ≥ n it returns all n
// indices (shuffled).
func WithoutReplacement(n, k int, rng *rand.Rand) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if k > n {
		k = n
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
