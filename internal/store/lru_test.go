package store

import (
	"fmt"
	"testing"

	"misketch/internal/core"
)

// numSketch builds an owned numeric sketch with n entries.
func numSketch(t *testing.T, n int) *core.Sketch {
	t.Helper()
	tb, err := core.NewStreamBuilder(core.RoleCandidate, true, core.Options{Method: core.TUPSK, Size: n})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < n; g++ {
		tb.AddNum(fmt.Sprintf("g%d", g), float64(g%7))
	}
	return tb.Sketch()
}

// TestSketchBytesChargesValOrder pins the accounting fix: a numeric
// sketch's resident size includes the memoized value-order array
// (NumValOrder, i32 per entry) that every cached sketch ends up
// materializing on its first ranking query — 12 bytes per numeric
// entry, not 8.
func TestSketchBytesChargesValOrder(t *testing.T) {
	sk := numSketch(t, 256)
	n := int64(len(sk.Nums))
	got := sketchBytes(sk)
	want := 96 + 4*n + 12*n
	if got != want {
		t.Fatalf("sketchBytes = %d, want %d (12 bytes per numeric entry)", got, want)
	}
	// Materializing the memo must not change the charge: it was already
	// accounted at admission time.
	sk.NumValOrder()
	if after := sketchBytes(sk); after != got {
		t.Fatalf("sketchBytes changed across NumValOrder: %d -> %d", got, after)
	}
}

// TestLRUBudgetInvariant holds CacheBytes <= the budget across fills,
// updates, and evictions as the store charges its cache, with every
// resident numeric sketch's value-order memo materialized — the state
// the old accounting undercounted, letting the cache keep more bytes
// reachable than its budget. (The LRU mechanics themselves are pinned
// in internal/cache.)
func TestLRUBudgetInvariant(t *testing.T) {
	per := sketchBytes(numSketch(t, 256))
	st, err := OpenWithOptions("", OpenOptions{Backend: BackendMem, CacheBytes: 4 * per})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		cs := st.cache.Stats()
		if cs.Used > st.cache.Max() {
			t.Fatalf("%s: used %d exceeds budget %d", step, cs.Used, st.cache.Max())
		}
		var sum int64
		st.cache.DeleteFunc(func(_ string, ent cachedSketch) bool {
			ent.sk.NumValOrder() // resident sketches carry their memo
			sum += sketchBytes(ent.sk)
			return false
		})
		if sum != cs.Used {
			t.Fatalf("%s: used %d but entries account %d", step, cs.Used, sum)
		}
	}
	for i := 0; i < 16; i++ {
		st.cacheLocked(fmt.Sprintf("s%d", i), numSketch(t, 256), 0, 0)
		check(fmt.Sprintf("add %d", i))
	}
	if cs := st.cache.Stats(); cs.Entries != 4 || cs.Evictions != 12 {
		t.Fatalf("resident entries = %d, evictions = %d, want 4 and 12 (budget %d, %d bytes each)",
			cs.Entries, cs.Evictions, st.cache.Max(), per)
	}
	// Updating an entry in place re-charges, never leaks.
	st.cacheLocked("s15", numSketch(t, 256), 0, 0)
	check("update")
	// An entry larger than the whole budget is refused and drops any
	// prior version.
	st.cacheLocked("s15", numSketch(t, 4096), 0, 0)
	check("oversized")
	if _, ok := st.cache.Get("s15"); ok {
		t.Fatal("oversized entry stayed resident")
	}
}
