package store

// Differential coverage for index-driven candidate selection: the same
// catalog served from an indexed store, an index-less store and a mixed
// store must produce bit-identical rankings and
// identical Pruned counts, and only indexed segments may skip decodes.
// The index-less fixtures are the two states a store can be in without
// a key index: a segment whose seal was torn at the seal.keyindex
// kill-point (it reopens frozen and replayed) and records still in the
// unsealed active segment.

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"misketch/internal/binio"
	"misketch/internal/core"
)

// diffSketches builds a deterministic catalog + train set with the same
// sliding-window geometry as batchStore, but with a per-sketch RNG so
// the exact same sketches can be written into several stores.
func diffSketches(t testing.TB, nCand, nTrains int) (names []string, cands, trains []*core.Sketch) {
	t.Helper()
	opt := core.Options{Method: core.TUPSK, Size: 128}
	for q := 0; q < nTrains; q++ {
		rng := rand.New(rand.NewSource(int64(1000 + q)))
		tb, err := core.NewStreamBuilder(core.RoleTrain, true, opt)
		if err != nil {
			t.Fatal(err)
		}
		lo := q * 40
		for i := 0; i < 2000; i++ {
			tb.AddNum(fmt.Sprintf("g%d", lo+rng.Intn(120)), rng.NormFloat64())
		}
		trains = append(trains, tb.Sketch())
	}
	for c := 0; c < nCand; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		cb, err := core.NewStreamBuilder(core.RoleCandidate, true, opt)
		if err != nil {
			t.Fatal(err)
		}
		lo := (c * 13) % 400
		for g := lo; g < lo+80; g++ {
			cb.AddNum(fmt.Sprintf("g%d", g), float64(g%6)+rng.NormFloat64())
		}
		names = append(names, fmt.Sprintf("c%03d", c))
		cands = append(cands, cb.Sketch())
	}
	return
}

// sealedStore writes the catalog, closes the store, and reopens it, so
// every record sits in one segment: sealed and indexed, or — with torn —
// frozen without an index because the seal crashed at seal.keyindex.
func sealedStore(t *testing.T, names []string, cands []*core.Sketch, torn bool) *Store {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, st, names, cands)
	closeStore(t, st, torn)
	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	wantIndexed := 1
	if torn {
		wantIndexed = 0
	}
	if ss := st.Stats(); ss.IndexedSegments != wantIndexed || ss.Segments != 1 {
		t.Fatalf("fixture has %d/%d segments indexed, want %d/1 (torn=%v)", ss.IndexedSegments, ss.Segments, wantIndexed, torn)
	}
	return st
}

func putAll(t *testing.T, st *Store, names []string, cands []*core.Sketch) {
	t.Helper()
	for i, name := range names {
		if err := st.Put(name, cands[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// closeStore closes st; with torn the seal dies at the seal.keyindex
// kill-point, leaving the active segment footer-less on disk.
func closeStore(t *testing.T, st *Store, torn bool) {
	t.Helper()
	if !torn {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return
	}
	disarm := crashAt(t, "seal.keyindex", 1)
	err := st.Close()
	disarm()
	if !errors.Is(err, errInjectedCrash) {
		t.Fatalf("Close = %v, want injected crash", err)
	}
}

type diffRanking struct {
	query  []RankedSketch
	pruned int
	batch  []BatchQueryResult
}

// rankAll runs both ranking paths for every train and captures
// everything a differential comparison needs.
func rankAllTrains(t *testing.T, st *Store, trains []*core.Sketch, minJoin int, noIndex bool) []diffRanking {
	t.Helper()
	ctx := context.Background()
	res, err := st.RankBatch(ctx, trains, RankOptions{MinJoinSize: minJoin, K: 3, NoIndex: noIndex})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]diffRanking, len(trains))
	for q, tr := range trains {
		ranked, _, err := st.RankQuery(ctx, tr, RankOptions{MinJoinSize: minJoin, K: 3, NoIndex: noIndex})
		if err != nil {
			t.Fatal(err)
		}
		out[q] = diffRanking{query: ranked, pruned: res.Queries[q].Pruned, batch: res.Queries}
	}
	return out
}

func diffCompare(t *testing.T, label string, got, want []diffRanking) {
	t.Helper()
	for q := range want {
		if got[q].pruned != want[q].pruned {
			t.Fatalf("%s train %d: pruned %d, want %d", label, q, got[q].pruned, want[q].pruned)
		}
		w, g := want[q].query, got[q].query
		if len(g) != len(w) {
			t.Fatalf("%s train %d: %d results, want %d", label, q, len(g), len(w))
		}
		for i := range w {
			if g[i].Name != w[i].Name || g[i].JoinSize != w[i].JoinSize ||
				g[i].Estimator != w[i].Estimator ||
				math.Float64bits(g[i].MI) != math.Float64bits(w[i].MI) {
				t.Fatalf("%s train %d result %d diverges: %+v vs %+v", label, q, i, g[i], w[i])
			}
		}
		wb, gb := want[q].batch[q].Ranked, got[q].batch[q].Ranked
		if len(gb) != len(wb) {
			t.Fatalf("%s train %d: batch %d results, want %d", label, q, len(gb), len(wb))
		}
		for i := range wb {
			if gb[i].Name != wb[i].Name || math.Float64bits(gb[i].MI) != math.Float64bits(wb[i].MI) {
				t.Fatalf("%s train %d batch result %d diverges", label, q, i)
			}
		}
	}
}

// TestIndexedRankingsBitIdentical is the core differential: indexed,
// torn (frozen, index-less), active (never sealed) and mixed (one torn,
// one indexed and the active segment) stores — plus the indexed
// store's own NoIndex reference walk — agree bit for bit on every
// ranking and on every Pruned count.
func TestIndexedRankingsBitIdentical(t *testing.T) {
	names, cands, trains := diffSketches(t, 80, 4)
	const minJoin = 20

	indexed := sealedStore(t, names, cands, false)
	torn := sealedStore(t, names, cands, true)

	// Active: every record still in the unsealed append segment.
	active, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { active.Close() })
	putAll(t, active, names, cands)
	if ss := active.Stats(); ss.IndexedSegments != 0 || ss.Segments != 1 {
		t.Fatalf("active fixture: %d/%d segments indexed", ss.IndexedSegments, ss.Segments)
	}

	// Mixed: a third torn at seal, a third sealed and indexed, a third
	// still in the active segment.
	mixed := func() *Store {
		dir := t.TempDir()
		n := len(names)
		for _, part := range []struct {
			lo, hi int
			torn   bool
		}{{0, n / 3, true}, {n / 3, 2 * n / 3, false}} {
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			putAll(t, st, names[part.lo:part.hi], cands[part.lo:part.hi])
			closeStore(t, st, part.torn)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		putAll(t, st, names[2*n/3:], cands[2*n/3:])
		if ss := st.Stats(); ss.IndexedSegments != 1 || ss.Segments != 3 {
			t.Fatalf("mixed fixture: %d/%d segments indexed", ss.IndexedSegments, ss.Segments)
		}
		return st
	}()

	ref := rankAllTrains(t, indexed, trains, minJoin, true) // historic full walk
	anyRanked, anyPruned := false, false
	for q := range ref {
		if len(ref[q].query) > 0 {
			anyRanked = true
		}
		if ref[q].pruned > 0 {
			anyPruned = true
		}
	}
	if !anyRanked || !anyPruned {
		t.Fatal("degenerate fixture: nothing ranked or nothing pruned")
	}

	diffCompare(t, "indexed", rankAllTrains(t, indexed, trains, minJoin, false), ref)
	diffCompare(t, "torn", rankAllTrains(t, torn, trains, minJoin, false), ref)
	diffCompare(t, "active", rankAllTrains(t, active, trains, minJoin, false), ref)
	diffCompare(t, "mixed", rankAllTrains(t, mixed, trains, minJoin, false), ref)

	// Only indexed segments may skip decodes; the index-less stores must
	// have answered everything through the full walk.
	if got := indexed.Stats().CandidatesSkippedNoDecode; got == 0 {
		t.Fatal("indexed store never skipped a decode")
	}
	if got := torn.Stats().CandidatesSkippedNoDecode; got != 0 {
		t.Fatalf("torn store claims %d decode skips", got)
	}
	if got := active.Stats().CandidatesSkippedNoDecode; got != 0 {
		t.Fatalf("active store claims %d decode skips", got)
	}
	if got := mixed.Stats().CandidatesSkippedNoDecode; got == 0 {
		t.Fatal("mixed store never skipped a decode on its indexed segment")
	}
}

// TestIndexedSelectionDecodesOnlyMatches pins the perf contract behind
// the index: with the cache disabled, a RankQuery against a sealed
// indexed catalog performs exactly one disk read per candidate whose
// key overlap beats MinJoinSize — the non-matching rest are never
// decoded (DiskReads is the store's decode counter).
func TestIndexedSelectionDecodesOnlyMatches(t *testing.T) {
	names, cands, trains := diffSketches(t, 80, 1)
	const minJoin = 20
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if err := st.Put(name, cands[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = OpenWithOptions(dir, OpenOptions{CacheBytes: -1}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	train := trains[0]
	matching := 0
	for _, cand := range cands {
		if core.KeyOverlap(train, cand) > minJoin {
			matching++
		}
	}
	if matching == 0 || matching == len(cands) {
		t.Fatalf("degenerate fixture: %d/%d matching", matching, len(cands))
	}
	before := st.Stats()
	if _, _, err := st.RankQuery(context.Background(), train, RankOptions{MinJoinSize: minJoin, K: 3}); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if reads := after.DiskReads - before.DiskReads; reads != int64(matching) {
		t.Fatalf("indexed RankQuery decoded %d candidates, want exactly the %d matching ones", reads, matching)
	}
	if skipped := after.CandidatesSkippedNoDecode - before.CandidatesSkippedNoDecode; skipped != int64(len(cands)-matching) {
		t.Fatalf("skipped-without-decode %d, want %d", skipped, len(cands)-matching)
	}
}

// TestCrashDuringSealKeyIndex kills the seal between the record index
// flush and the key index write: the segment reopens footer-less
// (frozen), every acked Put survives via replay, ranking still works,
// and the next compaction pass rebuilds the index.
func TestCrashDuringSealKeyIndex(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*core.Sketch{}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("s%d", i)
		sk := crashSketch(t, i)
		if err := st.Put(name, sk); err != nil {
			t.Fatal(err)
		}
		want[name] = sk
	}
	closeStore(t, st, true)
	expectState(t, dir, want)

	// The torn index must not have produced an indexed segment; a plain
	// compaction counts the frozen segment as work, rebuilds the index,
	// and ranking agrees before and after.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if ss := st2.Stats(); ss.IndexedSegments != 0 {
		t.Fatalf("torn index surfaced as %d indexed segments", ss.IndexedSegments)
	}
	train := buildSketch(t, core.RoleTrain, 0, func(x int) float64 { return float64(x % 7) })
	beforeRank, _, err := st2.RankQuery(context.Background(), train, RankOptions{MinJoinSize: 5, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := st2.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Compacted {
		t.Fatal("Compact skipped a store with a frozen, unindexed segment")
	}
	if ss := st2.Stats(); ss.IndexedSegments == 0 || ss.PostingBytes == 0 {
		t.Fatalf("backfill left no index: %+v", ss)
	}
	afterRank, _, err := st2.RankQuery(context.Background(), train, RankOptions{MinJoinSize: 5, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(afterRank) != len(beforeRank) {
		t.Fatalf("backfill changed the ranking: %d vs %d results", len(afterRank), len(beforeRank))
	}
	for i := range beforeRank {
		if afterRank[i].Name != beforeRank[i].Name ||
			math.Float64bits(afterRank[i].MI) != math.Float64bits(beforeRank[i].MI) {
			t.Fatalf("backfill changed result %d", i)
		}
	}
}

// TestCompactNoOpWhenSealedAndIndexed pins the pass's idempotence: a
// store whose records sit fully live in one sealed, indexed segment is
// not rewritten, while the same catalog in a crash-frozen segment — no
// garbage either — is folded into indexed output.
func TestCompactNoOpWhenSealedAndIndexed(t *testing.T) {
	names, cands, _ := diffSketches(t, 10, 1)
	st := sealedStore(t, names, cands, false)
	cs, err := st.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs.Compacted {
		t.Fatal("Compact rewrote a fully-live indexed store")
	}
	torn := sealedStore(t, names, cands, true)
	cs, err = torn.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Compacted {
		t.Fatal("Compact skipped a frozen store")
	}
	if ss := torn.Stats(); ss.IndexedSegments == 0 {
		t.Fatal("frozen store still unindexed after Compact")
	}
}

// twoSegmentStore writes the first half of the catalog into sealed,
// indexed segment 1 of a fresh directory and the second half into
// segment 2, and returns the directory.
func twoSegmentStore(t *testing.T, names []string, cands []*core.Sketch) string {
	t.Helper()
	dir := t.TempDir()
	n := len(names)
	for _, part := range [][2]int{{0, n / 2}, {n / 2, n}} {
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		putAll(t, st, names[part[0]:part[1]], cands[part[0]:part[1]])
		closeStore(t, st, false)
	}
	return dir
}

// breakPostingList rewrites, in place and keeping every length, the
// posting list of the first hash in segment seq's key index that want
// accepts: its first ordinal goes out of range, or with zeroMult its
// first multiplicity becomes zero. It then recomputes the key index CRC
// and the footer CRC, so only the structural check can tell.
func breakPostingList(t *testing.T, dir string, seq uint64, zeroMult bool, want func(uint32) bool) {
	t.Helper()
	path := segmentPath(dir, seq)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := len(data) - segFooterV2Bytes
	if string(data[len(data)-8:]) != segFooterMagicV2 {
		t.Fatalf("segment %d has no v2 footer", seq)
	}
	kixOff := int(binio.U64At(data, end))
	ix, err := parseKeyIndex(data[kixOff:end], true)
	if err != nil {
		t.Fatal(err)
	}
	if ix.records() > 127 {
		t.Fatalf("segment %d indexes %d records: ordinal 127 would be in range", seq, ix.records())
	}
	for s := 0; s < ix.slots; s++ {
		ref, hk := binio.U32At(ix.refs, s*4), binio.U32At(ix.keys, s*4)
		if ref == 0 || !want(hk) {
			continue
		}
		at := end - len(ix.postings) + int(ref) - 1
		_, n := binio.UvarintAt(data, at)
		at += n // the first posting's ordinal and multiplicity, one byte each
		if zeroMult {
			data[at+1] = 0
		} else {
			data[at] = 127
		}
		binio.PutU32(data[kixOff+12:], crc32.Checksum(data[kixOff+sectionHeaderBytes:end], crcTable))
		binio.PutU32(data[end+24:], crc32.Checksum(data[:end], crcTable))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("segment %d indexes no wanted hash", seq)
}

// TestPostingDefectFallsBackPerSegment plants a structurally invalid
// posting list behind valid CRCs — an ordinal out of range, or a zero
// multiplicity — in the first of two sealed segments. Until a query reads
// that list the segment's index serves; the query that reads it and every
// later one, including those that never would, visit every candidate of
// that segment as if it had no index, while the other segment keeps
// excluding through its own. Every ranking and Pruned count equals the
// NoIndex walk's.
func TestPostingDefectFallsBackPerSegment(t *testing.T) {
	names, cands, trains := diffSketches(t, 80, 4)
	const minJoin = 20
	a, b := trains[0], trains[3] // key windows [0, 120) and [120, 240)
	hashesOf := func(tr *core.Sketch) map[uint32]bool {
		hs, _ := core.CompileTrainProbe(tr).DistinctKeyHashes()
		set := make(map[uint32]bool, len(hs))
		for _, hk := range hs {
			set[hk] = true
		}
		return set
	}
	inA, inB := hashesOf(a), hashesOf(b)
	// excluded counts, per segment, the candidates an index excludes for tr.
	excluded := func(tr *core.Sketch) (seg1, seg2 int64) {
		for i, c := range cands {
			switch {
			case core.KeyOverlap(tr, c) > minJoin:
			case i < len(cands)/2:
				seg1++
			default:
				seg2++
			}
		}
		return seg1, seg2
	}
	a1, a2 := excluded(a)
	b1, b2 := excluded(b)
	if a1 == 0 || a2 == 0 || b1 == 0 || b2 == 0 {
		t.Fatalf("degenerate fixture: %d+%d and %d+%d candidates excluded", a1, a2, b1, b2)
	}
	ctx := context.Background()
	for _, zeroMult := range []bool{false, true} {
		dir := twoSegmentStore(t, names, cands)
		breakPostingList(t, dir, 1, zeroMult, func(hk uint32) bool { return inA[hk] && !inB[hk] })
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if m, ok := st.Meta(names[0]); !ok || m.Segment != 1 {
			t.Fatalf("%s lives in segment %d, want 1", names[0], m.Segment)
		}
		if err := st.Verify(); err != nil {
			t.Fatalf("the rewritten segment fails its CRC: %v", err)
		}
		for i, step := range []struct {
			train *core.Sketch
			skips int64
		}{
			{b, b1 + b2}, // b never reads the bad list: both indexes serve
			{a, a2},      // a reads it: segment 1 is walked in full
			{b, b2},      // and stays walked for b
			{a, a2},
		} {
			label := fmt.Sprintf("zeroMult=%v step %d", zeroMult, i)
			trains := []*core.Sketch{step.train}
			want, err := st.RankBatch(ctx, trains, RankOptions{MinJoinSize: minJoin, K: 3, NoIndex: true})
			if err != nil {
				t.Fatal(err)
			}
			before := st.Stats().CandidatesSkippedNoDecode
			got, err := st.RankBatch(ctx, trains, RankOptions{MinJoinSize: minJoin, K: 3})
			if err != nil {
				t.Fatal(err)
			}
			w, g := want.Queries[0], got.Queries[0]
			if len(w.Ranked) == 0 || !sameRanked(g.Ranked, w.Ranked) || g.Pruned != w.Pruned {
				t.Fatalf("%s: %d results pruning %d, the NoIndex walk %d pruning %d", label, len(g.Ranked), g.Pruned, len(w.Ranked), w.Pruned)
			}
			if skips := st.Stats().CandidatesSkippedNoDecode - before; skips != step.skips {
				t.Fatalf("%s: %d candidates skipped without a decode, want %d", label, skips, step.skips)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLazyPostingValidationRace ranks eight distinct trains at once on a
// freshly opened indexed store, so first reads of the posting lists they
// share race to validate them; every ranking must equal the one-goroutine
// run's.
func TestLazyPostingValidationRace(t *testing.T) {
	names, cands, trains := diffSketches(t, 80, 8)
	dir := twoSegmentStore(t, names, cands)
	open := func() *Store {
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	rank := func(st *Store, tr *core.Sketch) BatchQueryResult {
		res, err := st.RankBatch(context.Background(), []*core.Sketch{tr}, RankOptions{MinJoinSize: 20, K: 3, TopK: 10})
		if err != nil {
			t.Error(err)
			return BatchQueryResult{}
		}
		return res.Queries[0]
	}
	st := open()
	want := make([]BatchQueryResult, len(trains))
	for q, tr := range trains {
		if want[q] = rank(st, tr); len(want[q].Ranked) == 0 || want[q].Pruned == 0 {
			t.Fatalf("degenerate fixture: train %d ranks %d and prunes %d", q, len(want[q].Ranked), want[q].Pruned)
		}
	}
	st.Close()
	for round := 0; round < 3; round++ {
		st := open()
		got := make([]BatchQueryResult, len(trains))
		var wg sync.WaitGroup
		for q := range trains {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[q] = rank(st, trains[q])
			}()
		}
		wg.Wait()
		st.Close()
		for q := range trains {
			if !sameRanked(got[q].Ranked, want[q].Ranked) || got[q].Pruned != want[q].Pruned {
				t.Fatalf("round %d train %d: %d results pruning %d, alone %d pruning %d", round, q, len(got[q].Ranked), got[q].Pruned, len(want[q].Ranked), want[q].Pruned)
			}
		}
	}
}

// TestKeyIndexCRCFailsClosedAtOpen raises one posting's multiplicity in
// the key index of the first of two sealed segments and recomputes only
// the footer CRC: the list stays well formed, so the section's own CRC is
// the one check that can tell, and the open's warm-up checks it. That
// segment then serves unindexed — the first rank equals the NoIndex
// walk's and only the other segment excludes candidates — and a Close
// issued right after an open leaves no mapping.
func TestKeyIndexCRCFailsClosedAtOpen(t *testing.T) {
	names, cands, trains := diffSketches(t, 80, 4)
	const minJoin = 20
	train := trains[0]
	var seg1, seg2 int64 // the candidates an index excludes for train, per segment
	for i, c := range cands {
		switch {
		case core.KeyOverlap(train, c) > minJoin:
		case i < len(cands)/2:
			seg1++
		default:
			seg2++
		}
	}
	if seg1 == 0 || seg2 == 0 {
		t.Fatalf("degenerate fixture: %d+%d candidates excluded", seg1, seg2)
	}
	dir, err := filepath.EvalSymlinks(twoSegmentStore(t, names, cands))
	if err != nil {
		t.Fatal(err)
	}
	path := segmentPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := len(data) - segFooterV2Bytes
	kixOff := int(binio.U64At(data, end))
	ix, err := parseKeyIndex(data[kixOff:end], true)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < ix.slots; s++ {
		if ref := binio.U32At(ix.refs, s*4); ref != 0 {
			at := end - len(ix.postings) + int(ref) - 1
			_, n := binio.UvarintAt(data, at)
			if data[at+n+1] != 1 {
				t.Fatalf("first posting's multiplicity byte is %d, want 1", data[at+n+1])
			}
			data[at+n+1] = 2
			break
		}
	}
	binio.PutU32(data[end+24:], crc32.Checksum(data[:end], crcTable))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseKeyIndex(data[kixOff:end], false); err != nil {
		t.Fatalf("the rewritten index fails more than its CRC: %v", err)
	}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rank := func(noIndex bool) BatchQueryResult {
		res, err := st.RankBatch(ctx, []*core.Sketch{train}, RankOptions{MinJoinSize: minJoin, K: 3, NoIndex: noIndex})
		if err != nil {
			t.Fatal(err)
		}
		return res.Queries[0]
	}
	got := rank(false)
	skips := st.Stats().CandidatesSkippedNoDecode
	want := rank(true)
	if len(want.Ranked) == 0 || !sameRanked(got.Ranked, want.Ranked) || got.Pruned != want.Pruned {
		t.Fatalf("%d results pruning %d, the NoIndex walk %d pruning %d", len(got.Ranked), got.Pruned, len(want.Ranked), want.Pruned)
	}
	if skips != seg2 {
		t.Fatalf("%d candidates skipped without a decode, want segment 2's %d: segment 1's index served", skips, seg2)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS != "linux" {
		return // the rest reads /proc/self/maps
	}
	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if held := mappingsUnder(t, dir); len(held) > 0 {
		t.Fatalf("%d mappings under the store after Close, first: %s", len(held), held[0])
	}
}
