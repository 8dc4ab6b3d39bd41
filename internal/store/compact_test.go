package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"misketch/internal/core"
	"misketch/internal/mi"
)

// TestCompactFoldsGarbage checks the core reclamation story: overwrites
// and tombstones disappear, live data survives bit-for-bit, and the
// segment count drops to one.
func TestCompactFoldsGarbage(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sk := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g % 5) })
	for i := 0; i < 10; i++ {
		if err := st.Put(fmt.Sprintf("s%d", i), sk); err != nil {
			t.Fatal(err)
		}
	}
	// Garbage: overwrite every sketch once, delete three.
	sk2 := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g % 3) })
	for i := 0; i < 10; i++ {
		if err := st.Put(fmt.Sprintf("s%d", i), sk2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 7; i < 10; i++ {
		if err := st.Delete(fmt.Sprintf("s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := st.Stats()
	cs, err := st.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Compacted || cs.Records != 7 || cs.Reclaimed <= 0 {
		t.Fatalf("CompactStats = %+v", cs)
	}
	after := st.Stats()
	if after.Segments != 1 {
		t.Errorf("segments after compact = %d (stats %+v)", after.Segments, after)
	}
	if after.SegmentBytes >= before.SegmentBytes {
		t.Errorf("compaction reclaimed nothing: %d -> %d bytes", before.SegmentBytes, after.SegmentBytes)
	}
	if after.Compactions != 1 {
		t.Errorf("Compactions = %d", after.Compactions)
	}
	for i := 0; i < 7; i++ {
		got, err := st.Get(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for j := range got.Nums {
			if math.Float64bits(got.Nums[j]) != math.Float64bits(sk2.Nums[j]) {
				t.Fatalf("s%d values changed across compaction", i)
			}
		}
	}
	for i := 7; i < 10; i++ {
		if _, err := st.Get(fmt.Sprintf("s%d", i)); err == nil {
			t.Errorf("deleted s%d resurrected by compaction", i)
		}
	}
	// Idempotence: a second pass finds nothing to fold.
	cs2, err := st.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs2.Compacted {
		t.Errorf("second compaction should be a no-op, got %+v", cs2)
	}
	// Reopen: the compacted store round-trips.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := st2.Len(); n != 7 {
		t.Errorf("Len after reopen = %d", n)
	}
}

// TestManifestAfterCompactListsOnlyExistingSegments pins the second
// manifest write of a compaction: once the sources are retired and
// unlinked, the persisted manifest must no longer list them — or the
// next open would find it inconsistent and fall back to a full replay.
func TestManifestAfterCompactListsOnlyExistingSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sk := buildSketch(t, core.RoleCandidate, 42, func(g int) float64 { return float64(g) })
	for i := 0; i < 10; i++ {
		if err := st.Put("a", sk); err != nil { // overwrites => garbage
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if cs, err := st.Compact(context.Background()); err != nil || !cs.Compacted {
		t.Fatalf("compact = %+v, %v", cs, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := readManifestV2(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range man.segs {
		if _, err := os.Stat(segmentPath(dir, ms.seq)); err != nil {
			t.Errorf("manifest lists segment %d but file missing: %v", ms.seq, err)
		}
	}
}

// TestCompactDuringRankAndMutations races a compaction against
// in-flight ranking queries, Puts, and Deletes under -race: queries
// hold pins on the source mappings, mutations land in the new active
// segment, and nothing is lost or corrupted.
func TestCompactDuringRankAndMutations(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	train := buildSketch(t, core.RoleTrain, 0, func(g int) float64 { return float64(g % 5) })
	cand := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g % 5) })
	for i := 0; i < 24; i++ {
		if err := st.Put(fmt.Sprintf("c%02d", i), cand); err != nil {
			t.Fatal(err)
		}
	}
	// Some garbage so every compaction pass has work.
	for i := 0; i < 12; i++ {
		if err := st.Put(fmt.Sprintf("c%02d", i), cand); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // rankers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ranked, _, err := st.RankQuery(context.Background(), train, RankOptions{MinJoinSize: 0, K: mi.DefaultK, TopK: 5})
			if err != nil {
				t.Error(err)
				return
			}
			if len(ranked) == 0 {
				t.Error("empty ranking during compaction")
				return
			}
		}
	}()
	go func() { // writers
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("w%02d", i%8)
			if err := st.Put(name, cand); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 2 {
				if err := st.Delete(name); err != nil {
					t.Error(err)
					return
				}
			}
			i++
		}
	}()
	go func() { // compactor
		defer wg.Done()
		for n := 0; n < 6; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := st.Compact(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	// Every surviving sketch must still read back.
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if _, err := st.Get(name); err != nil {
			t.Errorf("Get(%s) after churn: %v", name, err)
		}
	}
}

// TestAutoCompactLoop exercises the background loop end to end: garbage
// accumulates, the loop folds it without any explicit Compact call, and
// Close stops the loop.
func TestAutoCompactLoop(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenWithOptions(dir, OpenOptions{CompactEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sk := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g) })
	for round := 0; round < 4; round++ {
		for i := 0; i < 6; i++ {
			if err := st.Put(fmt.Sprintf("s%d", i), sk); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction never ran: %+v", st.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n, _ := st.Len(); n != 6 {
		t.Errorf("Len = %d after auto-compaction", n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n, _ := st.Len(); n != 6 {
		t.Errorf("Len = %d after auto-compaction and a reopen", n)
	}
}

// TestMemBackend holds the deprecated BackendMem alias to its contract:
// it opens an ordinary store on a private temporary directory, ignoring
// the one passed, whose puts, gets, deletes and rankings match a store on
// a directory of its own and whose Stats read "fs"; Close removes the
// temporary directory. A Backend other than "", "fs" and "mem" is refused.
func TestMemBackend(t *testing.T) {
	mem, err := OpenWithOptions("", OpenOptions{Backend: BackendMem})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close() // a no-op after the Close below
	tmp := mem.Dir()
	fs, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	train := buildSketch(t, core.RoleTrain, 0, func(g int) float64 { return float64(g % 5) })
	for i := 0; i < 8; i++ {
		cand := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g % (i + 2)) })
		for _, st := range []*Store{mem, fs} {
			if err := st.Put(fmt.Sprintf("c%d", i), cand); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(tmp, segmentsDir)); err != nil {
		t.Fatalf("the alias store wrote no segments under %q: %v", tmp, err)
	}
	if err := mem.Delete("c7"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("c7"); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Get("c7"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get of a deleted sketch = %v, want ErrNotFound", err)
	}
	if _, err := mem.Get("c3"); err != nil {
		t.Error(err)
	}
	memRanked, _, err := mem.RankQuery(context.Background(), train, RankOptions{MinJoinSize: 0, K: mi.DefaultK})
	if err != nil {
		t.Fatal(err)
	}
	fsRanked, _, err := fs.RankQuery(context.Background(), train, RankOptions{MinJoinSize: 0, K: mi.DefaultK})
	if err != nil {
		t.Fatal(err)
	}
	rankingsBitEqual(t, "mem-vs-fs", memRanked, fsRanked)
	if err := mem.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := mem.Stats()
	if stats.Backend != "fs" || stats.Sketches != 7 {
		t.Errorf("mem stats = %+v", stats)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("the temporary directory outlived Close: %v", err)
	}

	// A directory passed with the alias is left as it was.
	given := t.TempDir()
	if err := os.WriteFile(filepath.Join(given, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	other, err := OpenWithOptions(given, OpenOptions{Backend: BackendMem})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.Put("c0", train); err != nil {
		t.Fatal(err)
	}
	if err := other.Close(); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(given); err != nil || len(ents) != 1 || ents[0].Name() != "keep" {
		t.Errorf("the passed directory holds %v, %v; want only its own file", ents, err)
	}
	if other.Dir() == given {
		t.Error("the alias opened on the passed directory")
	}
	if _, err := os.Stat(other.Dir()); !os.IsNotExist(err) {
		t.Errorf("the temporary directory outlived Close: %v", err)
	}

	if st, err := OpenWithOptions(t.TempDir(), OpenOptions{Backend: "bogus"}); err == nil {
		st.Close()
		t.Error("Backend \"bogus\" opened")
	}
}

// TestSegmentsObservability checks Store.Segments liveness accounting.
func TestSegmentsObservability(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sk := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g) })
	for i := 0; i < 5; i++ {
		if err := st.Put(fmt.Sprintf("s%d", i), sk); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put("s0", sk); err != nil { // one dead record
		t.Fatal(err)
	}
	infos := st.Segments()
	if len(infos) != 1 {
		t.Fatalf("Segments = %+v", infos)
	}
	info := infos[0]
	if info.Sealed || info.Compacted {
		t.Errorf("active segment flags wrong: %+v", info)
	}
	if info.Records != 6 || info.LiveRecords != 5 {
		t.Errorf("records = %d live %d, want 6 and 5", info.Records, info.LiveRecords)
	}
	if info.LiveBytes <= 0 || info.LiveBytes >= info.Bytes {
		t.Errorf("live bytes accounting: %+v", info)
	}
	if _, err := st.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	infos = st.Segments()
	if len(infos) != 1 || !infos[0].Sealed || !infos[0].Compacted || infos[0].Records != 5 {
		t.Errorf("Segments after compact = %+v", infos)
	}
}

// TestRankLoadChasesCompactedRecord pins the mid-query compaction
// contract at the load level: a worker holding a manifest snapshot
// whose segment a finished compaction has retired must still load the
// candidate (from its new home), not skip it — the record was copied,
// not mutated.
func TestRankLoadChasesCompactedRecord(t *testing.T) {
	st, err := OpenWithOptions(t.TempDir(), OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	sk := buildSketch(t, core.RoleCandidate, 0, func(g int) float64 { return float64(g % 5) })
	if err := st.Put("keep", sk); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("dead", sk); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("dead"); err != nil {
		t.Fatal(err)
	}
	m, ok := st.Meta("keep")
	if !ok {
		t.Fatal("meta missing")
	}
	// The query pinned nothing that survives: the compaction retires the
	// snapshot's segment entirely before the load happens.
	if cs, err := st.Compact(context.Background()); err != nil || !cs.Compacted {
		t.Fatalf("compact = %+v, %v", cs, err)
	}
	if cur, _ := st.Meta("keep"); cur.Segment == m.Segment {
		t.Fatal("compaction did not move the record; test is vacuous")
	}
	got, err := st.read(m, map[uint64]struct{}{m.Segment: {}}, st.Gen())
	if err != nil {
		t.Fatalf("read after compaction move: %v", err)
	}
	if got.Len() != sk.Len() {
		t.Error("chased record decoded wrong sketch")
	}
	for i := range sk.Nums {
		if math.Float64bits(got.Nums[i]) != math.Float64bits(sk.Nums[i]) {
			t.Fatalf("value %d differs after the chase", i)
		}
	}
	// A genuinely deleted candidate still surfaces as an error for the
	// caller's skip triage.
	if err := st.Put("gone", sk); err != nil {
		t.Fatal(err)
	}
	mg, _ := st.Meta("gone")
	if err := st.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.read(mg, nil, st.Gen()); err == nil {
		t.Error("deleted candidate should error (and be skipped by triage)")
	}
}
