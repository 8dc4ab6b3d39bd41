package sample

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"misketch/internal/hash"
)

func TestReservoirKeepsAllWhenUnderCapacity(t *testing.T) {
	r := NewReservoir[int](10, rand.New(rand.NewSource(1)))
	for i := 0; i < 5; i++ {
		r.Add(i)
	}
	if len(r.Items()) != 5 {
		t.Fatalf("items=%d", len(r.Items()))
	}
}

func TestReservoirCapacity(t *testing.T) {
	r := NewReservoir[int](10, rand.New(rand.NewSource(1)))
	for i := 0; i < 1000; i++ {
		r.Add(i)
	}
	if len(r.Items()) != 10 {
		t.Fatalf("len = %d, want 10", len(r.Items()))
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Each of n=20 items should appear in a k=5 reservoir with probability
	// k/n = 0.25. Run many trials and check the empirical inclusion rates.
	const n, k, trials = 20, 5, 20000
	counts := make([]int, n)
	rng := rand.New(rand.NewSource(42))
	for tr := 0; tr < trials; tr++ {
		r := NewReservoir[int](k, rng)
		for i := 0; i < n; i++ {
			r.Add(i)
		}
		for _, it := range r.Items() {
			counts[it]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.06*want {
			t.Errorf("item %d included %d times, want about %.0f", i, c, want)
		}
	}
}

func TestReservoirPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewReservoir[int](0, rand.New(rand.NewSource(1)))
}

func TestKMVSelectsMinimumHashes(t *testing.T) {
	s := NewKMV[int](3)
	us := []float64{0.9, 0.1, 0.5, 0.3, 0.7, 0.2}
	for i, u := range us {
		s.Offer(u, i)
	}
	items := s.Items()
	// Minimum hashes are 0.1 (idx 1), 0.2 (idx 5), 0.3 (idx 3).
	want := []int{1, 5, 3}
	if len(items) != 3 {
		t.Fatalf("len = %d", len(items))
	}
	for i := range want {
		if items[i] != want[i] {
			t.Fatalf("Items() = %v, want %v (ascending hash order)", items, want)
		}
	}
	if s.Threshold() != 0.3 {
		t.Errorf("Threshold = %v, want 0.3", s.Threshold())
	}
}

func TestKMVOrderInvariance(t *testing.T) {
	// The same universe offered in any order yields the same selection —
	// the coordination property.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		type kv struct {
			u float64
			v int
		}
		var univ []kv
		for i := 0; i < n; i++ {
			univ = append(univ, kv{hash.Unit(uint64(i) * 2654435761), i})
		}
		s1 := NewKMV[int](8)
		for _, e := range univ {
			s1.Offer(e.u, e.v)
		}
		rng.Shuffle(len(univ), func(i, j int) { univ[i], univ[j] = univ[j], univ[i] })
		s2 := NewKMV[int](8)
		for _, e := range univ {
			s2.Offer(e.u, e.v)
		}
		a, b := s1.Items(), s2.Items()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKMVUnderCapacity(t *testing.T) {
	s := NewKMV[string](10)
	s.Offer(0.5, "a")
	s.Offer(0.2, "b")
	if s.Len() != 2 || s.Threshold() != 1 {
		t.Errorf("len=%d threshold=%v", s.Len(), s.Threshold())
	}
	items := s.Items()
	if items[0] != "b" || items[1] != "a" {
		t.Errorf("Items = %v", items)
	}
}

func TestPrioritySelectsHeavyItems(t *testing.T) {
	// With one item 1000x heavier than the rest, it should essentially
	// always be selected.
	missing := 0
	for trial := 0; trial < 200; trial++ {
		s := NewPriority[int](5)
		rng := rand.New(rand.NewSource(int64(trial)))
		for i := 0; i < 50; i++ {
			w := 1.0
			if i == 7 {
				w = 1000
			}
			s.Offer(w, rng.Float64(), i)
		}
		found := false
		for _, it := range s.Items() {
			if it == 7 {
				found = true
			}
		}
		if !found {
			missing++
		}
	}
	if missing > 2 {
		t.Errorf("heavy item missed in %d/200 trials", missing)
	}
}

func TestPriorityCapacityAndZeroHash(t *testing.T) {
	s := NewPriority[int](2)
	s.Offer(1, 0, 1) // u=0 must not divide by zero
	s.Offer(1, 0.5, 2)
	s.Offer(1, 0.9, 3)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	// u=0 gives (effectively) infinite priority; item 1 must be retained.
	found := false
	for _, it := range s.Items() {
		if it == 1 {
			found = true
		}
	}
	if !found {
		t.Error("u=0 item should have maximal priority")
	}
}

func TestBernoulliRate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	got := len(Bernoulli(100000, 0.3, rng))
	if math.Abs(float64(got)-30000) > 1000 {
		t.Errorf("Bernoulli kept %d of 100000 at p=0.3", got)
	}
	if len(Bernoulli(1000, 0, rng)) != 0 {
		t.Error("p=0 should select nothing")
	}
	if len(Bernoulli(1000, 1.1, rng)) != 1000 {
		t.Error("p>=1 should select everything")
	}
}

func TestWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	idx := WithoutReplacement(100, 30, rng)
	if len(idx) != 30 {
		t.Fatalf("len = %d", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 100 {
			t.Fatalf("index out of range: %d", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
	// k >= n returns everything.
	all := WithoutReplacement(10, 99, rng)
	sort.Ints(all)
	for i := range all {
		if all[i] != i {
			t.Fatalf("expected permutation of 0..9, got %v", all)
		}
	}
}

func TestWithoutReplacementUniform(t *testing.T) {
	// Each index should be selected with probability k/n.
	const n, k, trials = 10, 3, 30000
	counts := make([]int, n)
	rng := rand.New(rand.NewSource(7))
	for tr := 0; tr < trials; tr++ {
		for _, i := range WithoutReplacement(n, k, rng) {
			counts[i]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("index %d drawn %d times, want about %.0f", i, c, want)
		}
	}
}

// boxedHeap is the container/heap adapter KMV and Priority went through
// before their typed sifts: the reference the heap layouts are held to.
type boxedHeap struct {
	e   []kmvEntry[int]
	max bool // max-heap on u (KMV); min-heap otherwise (Priority, on q)
}

func (h *boxedHeap) Len() int { return len(h.e) }
func (h *boxedHeap) Less(i, j int) bool {
	if h.max {
		return h.e[i].u > h.e[j].u
	}
	return h.e[i].u < h.e[j].u
}
func (h *boxedHeap) Swap(i, j int) { h.e[i], h.e[j] = h.e[j], h.e[i] }
func (h *boxedHeap) Push(x any)    { h.e = append(h.e, x.(kmvEntry[int])) }
func (h *boxedHeap) Pop() any {
	x := h.e[len(h.e)-1]
	h.e = h.e[:len(h.e)-1]
	return x
}

// TestHeapLayoutsMatchContainerHeap: under streams thick with equal
// keys, every heap slot after every offer is the one container/heap
// left there — which is what keeps Items' order among equal hashes, and
// with it golden sketch bytes, where they were.
func TestHeapLayoutsMatchContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		k, distinct := 1+rng.Intn(24), 1+rng.Intn(40)
		kmv, pri := NewKMV[int](k), NewPriority[int](k)
		refK, refP := &boxedHeap{max: true}, &boxedHeap{}
		offer := func(ref *boxedHeap, key float64, item int) {
			if len(ref.e) < k {
				heap.Push(ref, kmvEntry[int]{key, item})
			} else if root := ref.e[0].u; ref.max && key < root || !ref.max && key > root {
				ref.e[0] = kmvEntry[int]{key, item}
				heap.Fix(ref, 0)
			}
		}
		for i := 0; i < 150; i++ {
			u := float64(1+rng.Intn(distinct)) / float64(distinct+1)
			w := float64(1 + rng.Intn(3))
			kmv.Offer(u, i)
			offer(refK, u, i)
			pri.Offer(w, u, i)
			offer(refP, w/u, i)
			for j := range refK.e {
				if kmv.h[j] != refK.e[j] {
					t.Fatalf("trial %d offer %d: KMV slot %d holds %+v, container/heap %+v", trial, i, j, kmv.h[j], refK.e[j])
				}
			}
			for j := range refP.e {
				if got := pri.neg.h[j]; got.item != refP.e[j].item || -got.u != refP.e[j].u {
					t.Fatalf("trial %d offer %d: Priority slot %d holds %+v, container/heap %+v", trial, i, j, got, refP.e[j])
				}
			}
		}
		if kmv.Len() != len(refK.e) || pri.Len() != len(refP.e) {
			t.Fatalf("trial %d: lengths %d/%d, want %d/%d", trial, kmv.Len(), pri.Len(), len(refK.e), len(refP.e))
		}
	}
}

// TestKMVOfferDoesNotAllocate: a full selector takes an offer — kept or
// turned away — without touching the allocator.
func TestKMVOfferDoesNotAllocate(t *testing.T) {
	s := NewKMV[int](256)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 256; i++ {
		s.Offer(rng.Float64(), i)
	}
	if avg := testing.AllocsPerRun(1000, func() { s.Offer(rng.Float64()*s.Threshold()*2, 0) }); avg != 0 {
		t.Fatalf("KMV.Offer allocates %.1f times per call at steady state", avg)
	}
}
