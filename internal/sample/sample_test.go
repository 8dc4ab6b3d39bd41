package sample

import (
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
