package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"misketch/internal/core"
	"misketch/internal/mi"
	"misketch/internal/table"
)

func buildSketch(t *testing.T, role core.Role, seed uint32, f func(g int) float64) *core.Sketch {
	t.Helper()
	const groups = 400
	var keys []string
	var vals []float64
	if role == core.RoleTrain {
		rng := rand.New(rand.NewSource(int64(seed) + 7))
		for i := 0; i < 5000; i++ {
			g := rng.Intn(groups)
			keys = append(keys, fmt.Sprintf("g%d", g))
			vals = append(vals, f(g))
		}
	} else {
		for g := 0; g < groups; g++ {
			keys = append(keys, fmt.Sprintf("g%d", g))
			vals = append(vals, f(g))
		}
	}
	tb := table.New(table.NewStringColumn("k", keys), table.NewFloatColumn("v", vals))
	s, err := core.Build(tb, "k", "v", role, core.Options{Method: core.TUPSK, Size: 512, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sk := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g) })
	if err := st.Put("tables/my table.csv#col@key", sk); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("tables/my table.csv#col@key")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != sk.Len() || got.Seed != sk.Seed {
		t.Error("round trip mismatch")
	}
	// Cold read (fresh store handle, no cache).
	st2, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	got2, err := st2.Get("tables/my table.csv#col@key")
	if err != nil {
		t.Fatal(err)
	}
	if got2.Len() != sk.Len() {
		t.Error("cold read mismatch")
	}
}

func TestGetMissing(t *testing.T) {
	st, _ := Open(t.TempDir())
	if _, err := st.Get("nope"); err == nil {
		t.Error("expected error for missing sketch")
	}
}

func TestPutEmptyNameRejected(t *testing.T) {
	st, _ := Open(t.TempDir())
	if err := st.Put("", &core.Sketch{Method: core.TUPSK}); err == nil {
		t.Error("empty name should be rejected")
	}
}

func TestListAndDelete(t *testing.T) {
	st, _ := Open(t.TempDir())
	sk := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g) })
	for _, name := range []string{"b#x", "a#y", "c#z"} {
		if err := st.Put(name, sk); err != nil {
			t.Fatal(err)
		}
	}
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "a#y" || names[2] != "c#z" {
		t.Errorf("List = %v", names)
	}
	if err := st.Delete("b#x"); err != nil {
		t.Fatal(err)
	}
	if n, _ := st.Len(); n != 2 {
		t.Errorf("Len = %d after delete", n)
	}
	if err := st.Delete("b#x"); err == nil {
		t.Error("double delete should error")
	}
	// Deleted sketches are not served from cache.
	if _, err := st.Get("b#x"); err == nil {
		t.Error("deleted sketch should be gone")
	}
}

func TestListIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	// Strays in the store root — including names an earlier
	// file-per-sketch layout would have used — are not the store's:
	// Open neither indexes nor deletes them.
	strays := []string{
		"README.txt",
		"ORSXG5A-.misk", // a sketch-looking name with garbage content
		filepath.Join("shards", "0007", "ORSXG5A-.misk"),
	}
	for _, rel := range strays {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "subdir.misk"), 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir) // reopen: recovery scans the directory
	if err != nil {
		t.Fatal(err)
	}
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Errorf("List should ignore foreign entries: %v", names)
	}
	for _, rel := range append(strays, "subdir.misk") {
		if _, err := os.Stat(filepath.Join(dir, rel)); err != nil {
			t.Errorf("Open removed a file it does not own: %v", err)
		}
	}
}

func TestOpenHealsLostOrCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sk := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g) })
	for _, name := range []string{"a#x", "b#x", "c#x"} {
		if err := st.Put(name, sk); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Lose the manifest entirely: Open rebuilds it from the segments.
	if err := os.Remove(filepath.Join(dir, ManifestFile)); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if names, _ := st2.List(); len(names) != 3 {
		t.Fatalf("List after manifest loss = %v", names)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestFile)); err != nil {
		t.Error("recovery should persist the rebuilt manifest")
	}

	// Corrupt the manifest, or leave one of a version this build does not
	// read: Open must fall back to segment replay.
	for label, content := range map[string][]byte{
		"garbage":       []byte("garbage"),
		"other version": otherVersionManifest,
	} {
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), content, 0o644); err != nil {
			t.Fatal(err)
		}
		st3, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if names, _ := st3.List(); len(names) != 3 {
			t.Fatalf("%s manifest: List = %v", label, names)
		}
		if got, err := st3.Get("b#x"); err != nil || got.Len() != sk.Len() {
			t.Errorf("%s manifest: Get after heal: %v", label, err)
		}
	}
}

func TestOpenRemovesOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sk := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g) })
	if err := st.Put("a#x", sk); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate crashes mid-Flush and mid-compaction: orphaned temp files.
	for _, orphan := range []string{
		filepath.Join(dir, ManifestFile+".tmp456"),
		filepath.Join(dir, segmentsDir, "000000000099.seg.tmp"),
	} {
		if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	var leftovers []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(d.Name(), ".tmp") {
			leftovers = append(leftovers, path)
		}
		return nil
	})
	if len(leftovers) != 0 {
		t.Errorf("orphaned temp files survive open: %v", leftovers)
	}
}

// TestVerifyReportsCorruptSegments pins Verify's contract: nil on a clean
// store, one error naming each segment whose bytes rotted — a sealed one
// by its footer CRC, a crash-frozen one by its record CRCs — and nil on
// a store whose one segment is still active, which it does not read. Bit
// rot is reported, not repaired: a reopen still
// reports it and Get of the damaged sketch fails its record CRC.
func TestVerifyReportsCorruptSegments(t *testing.T) {
	sketch := func(i int) *core.Sketch {
		return buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64((g + i) % 9) })
	}
	put := func(st *Store, names ...string) {
		t.Helper()
		for i, name := range names {
			if err := st.Put(name, sketch(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	reopen := func(dir string) *Store {
		t.Helper()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// flip overwrites a byte in the middle of name's record with another
	// value, behind the open handle's back, and returns the record's segment.
	flip := func(st *Store, name string) uint64 {
		t.Helper()
		m, ok := st.Meta(name)
		if !ok {
			t.Fatalf("no sketch %q", name)
		}
		f, err := os.OpenFile(segmentPath(st.Dir(), m.Segment), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b, off := make([]byte, 1), m.Offset+m.Bytes/2
		if _, err := f.ReadAt(b, off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xff
		if _, err := f.WriteAt(b, off); err != nil {
			t.Fatal(err)
		}
		return m.Segment
	}
	// names reports which of the segments err names.
	names := func(err error, segs ...uint64) (named []uint64) {
		for _, seq := range segs {
			if err != nil && strings.Contains(err.Error(), fmt.Sprintf("segment %d ", seq)) {
				named = append(named, seq)
			}
		}
		return named
	}

	t.Run("sealed", func(t *testing.T) {
		dir := t.TempDir()
		st := reopen(dir)
		put(st, "a0", "a1", "a2")
		if err := st.Close(); err != nil { // seals segment 1
			t.Fatal(err)
		}
		st = reopen(dir)
		put(st, "b0", "b1")
		if err := st.Close(); err != nil { // seals segment 2
			t.Fatal(err)
		}
		st = reopen(dir)
		if err := st.Verify(); err != nil {
			t.Fatalf("clean store: Verify = %v", err)
		}
		bad := flip(st, "a1")
		good, _ := st.Meta("b0")
		err := st.Verify()
		if got := names(err, bad, good.Segment); len(got) != 1 || got[0] != bad {
			t.Fatalf("Verify = %v; want an error naming segment %d alone", err, bad)
		}
		if _, err := st.Get("a1"); err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("Get of the damaged sketch = %v; want a CRC failure", err)
		}
		if _, err := st.Get("b0"); err != nil {
			t.Errorf("Get of an intact sketch: %v", err)
		}
		if err := reopen(dir).Verify(); len(names(err, bad)) != 1 {
			t.Errorf("after a reopen Verify = %v; want segment %d still named", err, bad)
		}
	})

	t.Run("frozen", func(t *testing.T) {
		dir := t.TempDir()
		put(reopen(dir), "c0", "c1", "c2") // the handle dies before its seal
		st := reopen(dir)
		if segs := st.Segments(); len(segs) != 1 || segs[0].Sealed {
			t.Fatalf("fixture: segments %+v; want one frozen segment", segs)
		}
		if err := st.Verify(); err != nil {
			t.Fatalf("clean frozen segment: Verify = %v", err)
		}
		bad := flip(st, "c1")
		if err := st.Verify(); len(names(err, bad)) != 1 {
			t.Fatalf("Verify = %v; want an error naming segment %d", err, bad)
		}
	})

	t.Run("active", func(t *testing.T) {
		st := reopen(t.TempDir())
		defer st.Close()
		put(st, "m0")
		if err := st.Verify(); err != nil {
			t.Fatalf("active segment only: Verify = %v", err)
		}
	})
}

// TestGetChecksRankCachedRecord: a rank's borrowed view of a rotted raw
// record does not vouch for it. Get pins nothing, so it decodes an owning
// copy of its own and fails the record CRC; so does Get of a rotted
// record in the active segment, which a pread serves.
func TestGetChecksRankCachedRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	level := func(g int) float64 { return float64(g % 9) }
	put := func(name string) Meta {
		t.Helper()
		if err := st.Put(name, buildSketch(t, core.RoleCandidate, 0, level)); err != nil {
			t.Fatal(err)
		}
		m, _ := st.Meta(name)
		return m
	}
	// rot flips a mantissa byte of m's first value, past the 40-byte
	// record header: the record still decodes, to a wrong value.
	rot := func(m Meta) {
		t.Helper()
		f, err := os.OpenFile(segmentPath(dir, m.Segment), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b, off := make([]byte, 1), m.Offset+40+3
		if _, err := f.ReadAt(b, off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xff
		if _, err := f.WriteAt(b, off); err != nil {
			t.Fatal(err)
		}
	}
	put("rot")
	if err := st.Close(); err != nil { // seals the record's segment
		t.Fatal(err)
	}
	if st, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m, _ := st.Meta("rot")
	rot(m)
	train := buildSketch(t, core.RoleTrain, 0, level)
	if _, _, err := st.RankQuery(context.Background(), train, RankOptions{MinJoinSize: 50}); err != nil {
		t.Fatal(err)
	}
	if ent, ok := st.cache.Get("rot"); !ok || ent.seg != m.Segment {
		t.Fatalf("fixture: the rank cached no view of segment %d", m.Segment)
	}
	if _, err := st.Get("rot"); err == nil || errors.Is(err, ErrNotFound) {
		t.Errorf("Get of the rotted sketch the rank cached = %v; want a CRC failure", err)
	}
	rot(put("active"))
	if _, err := st.Get("active"); err == nil || errors.Is(err, ErrNotFound) {
		t.Errorf("Get of a rotted sketch in the active segment = %v; want a CRC failure", err)
	}
}

// TestReadRacingPutCachesNothing: a read at the generation before a Put
// that loads the replaced version must not cache it, or later reads
// serve it. An overwrite appends a new record, so the Meta moves and two
// versions never share one; the read of the old Meta still decodes the
// old record out of the active segment.
func TestReadRacingPutCachesNothing(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	old := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g % 5) })
	cur := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g % 7) })
	if err := st.Put("c", old); err != nil {
		t.Fatal(err)
	}
	m, _ := st.Meta("c")
	gen := st.Gen()
	if err := st.Put("c", cur); err != nil {
		t.Fatal(err)
	}
	if now, _ := st.Meta("c"); now.Offset == m.Offset {
		t.Fatalf("the overwrite kept the Meta %+v; want a new offset", m)
	}
	got, err := st.read(m, nil, gen)
	if err != nil {
		t.Fatalf("the read before the Put: %v", err)
	}
	sketchesBitEqual(t, "the read before the Put", got, old)
	if got, err = st.Get("c"); err != nil {
		t.Fatal(err)
	}
	sketchesBitEqual(t, "Get after the Put", got, cur)
}

func TestManifestMetadataRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sk := buildSketch(t, core.RoleCandidate, 7, func(g int) float64 { return float64(g) })
	if err := st.Put("meta#x", sk); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := st2.Meta("meta#x")
	if !ok {
		t.Fatal("meta missing after reopen")
	}
	want := Meta{
		Name: "meta#x", Method: sk.Method, Role: sk.Role, Seed: sk.Seed,
		Size: sk.Size, Numeric: sk.Numeric, SourceRows: sk.SourceRows,
		Entries: sk.Len(), Bytes: m.Bytes, Segment: m.Segment, Offset: m.Offset,
	}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("meta = %+v, want %+v", m, want)
	}
	if m.Bytes <= 0 {
		t.Error("meta must record the record size")
	}
	if m.Segment == 0 || m.Offset < segHeaderBytes {
		t.Errorf("meta must locate the record: segment=%d offset=%d", m.Segment, m.Offset)
	}
}

func TestRankManifestOnlyFiltering(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	train := buildSketch(t, core.RoleTrain, 0, func(g int) float64 { return float64(g % 5) })
	st.Put("cand/a", buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g % 5) }))
	st.Put("cand/b", buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g % 3) }))
	st.Put("cand/foreign", buildSketch(t, core.RoleCandidate, 99, func(g int) float64 { return float64(g) }))
	st.Put("cand/train-role", train)
	st.Put("other/c", buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g) }))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	cold, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ranked, skipped, err := cold.RankQuery(context.Background(), train, RankOptions{Prefix: "cand/", K: mi.DefaultK})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 2 {
		t.Fatalf("ranked = %v", ranked)
	}
	wantSkipped := []string{"cand/foreign", "cand/train-role"}
	if !reflect.DeepEqual(skipped, wantSkipped) {
		t.Errorf("skipped = %v, want %v", skipped, wantSkipped)
	}
	// The acceptance bar: candidates excluded by prefix, seed, or role
	// must cost zero full-sketch deserializations on a cold store.
	if got := cold.Stats().DiskReads; got != 2 {
		t.Errorf("DiskReads = %d, want 2 (only the eligible candidates)", got)
	}
}

func TestRankTopK(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	train := buildSketch(t, core.RoleTrain, 0, func(g int) float64 { return float64(g % 7) })
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		noise := float64(i)
		st.Put(fmt.Sprintf("c%02d", i), buildSketch(t, core.RoleCandidate, 0, func(g int) float64 {
			return float64(g%7) + noise*rng.NormFloat64()
		}))
	}
	full, _, err := st.RankQuery(context.Background(), train, RankOptions{K: mi.DefaultK})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, len(full), len(full) + 5} {
		top, _, err := st.RankQuery(context.Background(), train, RankOptions{K: mi.DefaultK, TopK: k})
		if err != nil {
			t.Fatal(err)
		}
		want := full
		if k < len(full) {
			want = full[:k]
		}
		if !reflect.DeepEqual(top, want) {
			t.Errorf("topK=%d = %v, want %v", k, top, want)
		}
	}
}

func TestRankContextCancellation(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	train := buildSketch(t, core.RoleTrain, 0, func(g int) float64 { return float64(g % 5) })
	st.Put("c", buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g % 5) }))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := st.RankQuery(ctx, train, RankOptions{K: mi.DefaultK}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestCacheEviction(t *testing.T) {
	// A budget that holds roughly one decoded sketch forces eviction
	// traffic while results stay correct.
	st, err := OpenWithOptions(t.TempDir(), OpenOptions{CacheBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	sk := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g) })
	names := []string{"a", "b", "c", "d"}
	for _, n := range names {
		if err := st.Put(n, sk); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		for _, n := range names {
			got, err := st.Get(n)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != sk.Len() {
				t.Fatalf("Get(%s) wrong sketch", n)
			}
		}
	}
	stats := st.Stats()
	if stats.Evictions == 0 {
		t.Error("expected evictions under a tight byte budget")
	}
	if stats.CacheBytes > 8<<10 {
		t.Errorf("cache %d bytes exceeds its %d-byte bound", stats.CacheBytes, 8<<10)
	}
}

func TestCacheDisabled(t *testing.T) {
	st, err := OpenWithOptions(t.TempDir(), OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	sk := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g) })
	if err := st.Put("a", sk); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Get("a"); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.DiskReads != 3 || stats.CacheHits != 0 {
		t.Errorf("disabled cache: DiskReads=%d CacheHits=%d, want 3 and 0", stats.DiskReads, stats.CacheHits)
	}
}

func TestConcurrentPutGetRank(t *testing.T) {
	st, err := OpenWithOptions(t.TempDir(), OpenOptions{CacheBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	train := buildSketch(t, core.RoleTrain, 0, func(g int) float64 { return float64(g % 5) })
	cand := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g % 5) })
	for i := 0; i < 4; i++ {
		if err := st.Put(fmt.Sprintf("seed%d", i), cand); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", w)
			for i := 0; i < 10; i++ {
				switch i % 4 {
				case 0:
					if err := st.Put(name, cand); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := st.Get(fmt.Sprintf("seed%d", i%4)); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, _, err := st.RankQuery(context.Background(), train, RankOptions{Prefix: "seed", K: mi.DefaultK, TopK: 2}); err != nil {
						t.Error(err)
						return
					}
				case 3:
					if _, err := st.List(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, _ := st.Len(); n != 12 {
		t.Errorf("Len = %d, want 12", n)
	}
}

func TestRankOrdersByMI(t *testing.T) {
	st, _ := Open(t.TempDir())
	train := buildSketch(t, core.RoleTrain, 0, func(g int) float64 { return float64(g % 5) })
	rng := rand.New(rand.NewSource(9))
	st.Put("cand/exact", buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g % 5) }))
	st.Put("cand/noisy", buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g%5) + 3*rng.NormFloat64() }))
	st.Put("cand/noise", buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return rng.NormFloat64() }))
	st.Put("other/unrelated", buildSketch(t, core.RoleCandidate, 99, func(g int) float64 { return float64(g) })) // wrong seed

	ranked, skipped, err := st.RankQuery(context.Background(), train, RankOptions{Prefix: "cand/", MinJoinSize: 100, K: mi.DefaultK})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	if ranked[0].Name != "cand/exact" {
		t.Errorf("top = %s", ranked[0].Name)
	}
	if ranked[2].Name != "cand/noise" {
		t.Errorf("bottom = %s", ranked[2].Name)
	}
	if len(skipped) != 0 {
		t.Errorf("prefix filter should exclude the foreign-seed sketch before skipping: %v", skipped)
	}

	// Without the prefix, the wrong-seed sketch is skipped, not an error.
	_, skipped, err = st.RankQuery(context.Background(), train, RankOptions{MinJoinSize: 100, K: mi.DefaultK})
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != "other/unrelated" {
		t.Errorf("skipped = %v", skipped)
	}
}

func TestRankSkipsTrainRoleSketches(t *testing.T) {
	st, _ := Open(t.TempDir())
	train := buildSketch(t, core.RoleTrain, 0, func(g int) float64 { return float64(g % 5) })
	st.Put("a-train-sketch", train)
	_, skipped, err := st.RankQuery(context.Background(), train, RankOptions{K: mi.DefaultK})
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 {
		t.Errorf("train-role sketches are not candidates: %v", skipped)
	}
}

func TestConcurrentAccess(t *testing.T) {
	st, _ := Open(t.TempDir())
	sk := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g) })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", w)
			for i := 0; i < 20; i++ {
				if err := st.Put(name, sk); err != nil {
					t.Error(err)
					return
				}
				if _, err := st.Get(name); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n, _ := st.Len(); n != 8 {
		t.Errorf("Len = %d", n)
	}
}
