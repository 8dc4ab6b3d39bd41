package store

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"misketch/internal/core"
	"misketch/internal/mi"
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
	st, err := OpenWithOptions(t.TempDir(), OpenOptions{CacheBytes: 4 * per})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 16; i++ {
		st.cacheLocked(fmt.Sprintf("s%d", i), numSketch(t, 256), 0, 0)
		checkCacheCharges(t, st, fmt.Sprintf("add %d", i))
	}
	if cs := st.cache.Stats(); cs.Entries != 4 || cs.Evictions != 12 {
		t.Fatalf("resident entries = %d, evictions = %d, want 4 and 12 (budget %d, %d bytes each)",
			cs.Entries, cs.Evictions, st.cache.Max(), per)
	}
	// Updating an entry in place re-charges, never leaks.
	st.cacheLocked("s15", numSketch(t, 256), 0, 0)
	checkCacheCharges(t, st, "update")
	// An entry larger than the whole budget is refused and drops any
	// prior version.
	st.cacheLocked("s15", numSketch(t, 4096), 0, 0)
	checkCacheCharges(t, st, "oversized")
	if _, ok := st.cache.Get("s15"); ok {
		t.Fatal("oversized entry stayed resident")
	}
}

// TestPutKeepsNoReference: the store keeps no reference to the sketch a
// Put passes, raw or compressed. After the caller overwrites its
// sketches' arrays, Get, a rank and a reopen all read the stored values,
// bit for bit what a twin store that never saw the overwrite reads, and
// Get never hands back the caller's pointer.
func TestPutKeepsNoReference(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compression=%v", compress), func(t *testing.T) {
			ctx := context.Background()
			opt := OpenOptions{Compression: compress}
			train, names, mine := compressCorpus(t)
			_, _, theirs := compressCorpus(t)
			names, mine, theirs = []string{names[0], names[3]}, []*core.Sketch{mine[0], mine[3]}, []*core.Sketch{theirs[0], theirs[3]}
			if mine[0].Numeric || !mine[1].Numeric {
				t.Fatal("corpus changed: want a categorical and a numeric candidate")
			}
			open := func(dir string, sks []*core.Sketch) *Store {
				st, err := OpenWithOptions(dir, opt)
				if err != nil {
					t.Fatal(err)
				}
				for i, sk := range sks {
					if err := st.Put(names[i], sk); err != nil {
						t.Fatal(err)
					}
				}
				if compress && sks != nil {
					if _, err := st.Compact(ctx); err != nil {
						t.Fatal(err)
					}
					if s := st.Stats(); s.CompressedSegments == 0 || s.CompressedBytes >= s.RawBytes {
						t.Fatalf("records not compressed: %+v", s)
					}
				}
				return st
			}
			dir := t.TempDir()
			st, twin := open(dir, mine), open(t.TempDir(), theirs)
			defer twin.Close()
			for _, sk := range mine {
				for i := range sk.KeyHashes {
					sk.KeyHashes[i] ^= 0x5bd1e995
				}
				for i := range sk.Nums {
					sk.Nums[i] = 12345
				}
				for i := range sk.Strs {
					sk.Strs[i] = "overwritten"
				}
			}
			check := func(label string, st *Store) {
				t.Helper()
				ro := RankOptions{Prefix: "comp/", MinJoinSize: 20, K: mi.DefaultK}
				got, _, err := st.RankQuery(ctx, train, ro)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := twin.RankQuery(ctx, train, ro)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) != 2 || !sameRanked(got, want) {
					t.Errorf("%s: rank\n got %+v\nwant %+v", label, got, want)
				}
				for i, name := range names {
					got, err := st.Get(name)
					if err != nil {
						t.Fatal(err)
					}
					if got == mine[i] {
						t.Errorf("%s: Get(%q) returned the caller's sketch", label, name)
					}
					want, err := twin.Get(name)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.KeyHashes, want.KeyHashes) || !slices.Equal(got.Strs, want.Strs) ||
						!slices.EqualFunc(got.Nums, want.Nums, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
						t.Errorf("%s: Get(%q) reads the caller's overwrite, not the stored values", label, name)
					}
				}
			}
			check("after Put", st)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = open(dir, nil)
			defer st.Close()
			check("reopened", st)
		})
	}
}

// selCatDecode opens the cold catalog in dir with the given cache budget
// and returns a compressed categorical decode of a sel20k-shaped record
// (20 labels, 256 rows).
func selCatDecode(t *testing.T, dir string, cacheBytes int64) (*Store, *core.Sketch) {
	t.Helper()
	st, err := OpenWithOptions(dir, OpenOptions{Compression: true, CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.CompressedSegments != s.Segments || s.CompressedBytes >= s.RawBytes {
		t.Fatalf("catalog not compressed: %+v", s)
	}
	sk, err := st.Get("sel/d000/t001#x") // j = 1: categorical, planted
	if err != nil {
		t.Fatal(err)
	}
	return st, sk
}

// TestSketchBytesChargesDistinctValuesOnce: a compressed categorical
// decode interns one string per distinct value, so its charge is
// 96 + 4n + 16n + the distinct values' bytes, not the per-row sum; and
// charging it, or readmitting it, allocates nothing.
func TestSketchBytesChargesDistinctValuesOnce(t *testing.T) {
	dir := t.TempDir()
	coldCatalog(t, dir, selCatPerDomain)
	st, sk := selCatDecode(t, dir, 0)
	defer st.Close()
	n := int64(sk.Len())
	distinct := map[string]*byte{}
	var perRow int64
	for _, v := range sk.Strs {
		if p, ok := distinct[v]; ok && p != unsafe.StringData(v) {
			t.Fatalf("value %q decoded twice: the charge assumes one string per distinct value", v)
		}
		distinct[v] = unsafe.StringData(v)
		perRow += int64(len(v))
	}
	var valueBytes int64
	for v := range distinct {
		valueBytes += int64(len(v))
	}
	if n != 256 || len(distinct) != 20 {
		t.Fatalf("decode has %d rows and %d labels, want 256 and 20", n, len(distinct))
	}
	if got, want := sketchBytes(sk), 96+4*n+16*n+valueBytes; got != want {
		t.Fatalf("sketchBytes = %d, want %d (per-row charge would be %d)", got, want, 96+20*n+perRow)
	}
	if a := testing.AllocsPerRun(100, func() { sketchBytes(sk) }); a != 0 {
		t.Fatalf("sketchBytes allocates %v times", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		st.mu.Lock()
		st.cacheLocked("sel/d000/t001#x", sk, 0, 0)
		st.mu.Unlock()
	}); a != 0 {
		t.Fatalf("readmitting a resident name allocates %v times", a)
	}
}

// checkCacheCharges holds the cache's Used to the sum of its entries'
// charges and to its budget.
func checkCacheCharges(t *testing.T, st *Store, step string) {
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

// TestLRUBudgetInvariantCompressed is TestLRUBudgetInvariant over a
// compressed sel20k-shaped catalog, admitted as reads admit: Gets and
// ranks fill it past its budget, Puts overwrite cached names (and drop
// them), and the sum of the resident charges is Used, never above the
// budget, at every step.
func TestLRUBudgetInvariantCompressed(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	train := coldCatalog(t, dir, selCatPerDomain)
	st, sk := selCatDecode(t, dir, 0)
	per := sketchBytes(sk)
	st.Close()
	st, _ = selCatDecode(t, dir, 24*per)
	defer st.Close()
	metas := st.Metas()
	for i, m := range metas {
		if _, err := st.Get(m.Name); err != nil {
			t.Fatal(err)
		}
		checkCacheCharges(t, st, fmt.Sprintf("get %d", i))
	}
	for _, top := range []int{0, 10} {
		if _, _, err := st.RankQuery(ctx, train, RankOptions{Prefix: "sel/", MinJoinSize: 50, TopK: top}); err != nil {
			t.Fatal(err)
		}
		checkCacheCharges(t, st, fmt.Sprintf("rank top %d", top))
	}
	for i := len(metas) - 1; i >= len(metas)-8; i-- {
		name := metas[i].Name
		if _, ok := st.cache.Get(name); !ok {
			t.Fatalf("%s not resident after the ranks", name)
		}
		got, err := st.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(name, got); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.cache.Get(name); ok {
			t.Fatalf("Put left %s cached", name)
		}
		checkCacheCharges(t, st, "overwrite "+name)
	}
	s := st.Stats()
	if s.Evictions == 0 || s.CacheEntries == 0 || s.CacheBudgetBytes != 24*per || s.CacheBytes > s.CacheBudgetBytes {
		t.Fatalf("stats after filling the cache past its budget: %+v", s)
	}
}

// TestRankAdmittedCompressedDecodeOwnsItsMemory: a compressed categorical
// record decodes into memory of its own, so the entry a rank admits for
// it is tagged 0: Get serves that very sketch with no second decode or
// charge, and a compaction, which purges only views of the segments it
// retires, keeps it.
func TestRankAdmittedCompressedDecodeOwnsItsMemory(t *testing.T) {
	rankAdmittedEntryOwnsItsMemory(t, "sel/d000/t003#x", false) // categorical, not planted
}

// TestCompressedLoadsOwnTheirMemory is its numeric twin: a rank reads a
// compressed numeric record by pread and copies its values, so its entry
// too is tagged 0, serves Get and survives a compaction.
func TestCompressedLoadsOwnTheirMemory(t *testing.T) {
	rankAdmittedEntryOwnsItsMemory(t, "sel/d000/t004#x", true) // numeric, not planted
}

// rankAdmittedEntryOwnsItsMemory ranks domain 0 of a compressed cold
// catalog and checks the entry the rank admitted for name, which only
// the rank has read.
func rankAdmittedEntryOwnsItsMemory(t *testing.T, name string, numeric bool) {
	ctx := context.Background()
	dir := t.TempDir()
	train := coldCatalog(t, dir, selCatPerDomain)
	st, _ := selCatDecode(t, dir, 0)
	defer st.Close()
	if _, _, err := st.RankQuery(ctx, train, RankOptions{Prefix: "sel/", MinJoinSize: 50}); err != nil {
		t.Fatal(err)
	}
	ent, ok := st.cache.Get(name)
	if !ok || ent.sk.Numeric != numeric {
		t.Fatalf("fixture: the rank cached no decode of %s with Numeric %v", name, numeric)
	}
	if ent.seg != 0 {
		t.Errorf("the rank's decode of %s is tagged with segment %d, but it owns its memory", name, ent.seg)
	}
	used := st.cache.Stats().Used
	got, err := st.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if got != ent.sk {
		t.Errorf("Get of %s returned a new sketch, not the rank's entry", name)
	}
	if u := st.cache.Stats().Used; u != used {
		t.Errorf("Get of %s moved the cache's Used %d → %d", name, used, u)
	}
	// A second segment, so the Compact below folds both.
	if err := st.Put("other#x", got); err != nil {
		t.Fatal(err)
	}
	if cs, err := st.Compact(ctx); err != nil || !cs.Compacted {
		t.Fatalf("compact = %+v, %v", cs, err)
	}
	if after, ok := st.cache.Get(name); !ok || after.sk != ent.sk {
		t.Errorf("the compaction dropped the rank's decode of %s", name)
	}
}
