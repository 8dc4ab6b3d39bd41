package store

// The catalog view: everything a rank needs from the manifest, derived
// once per catalog state instead of once per query. Its entries are the
// catalog table itself (manifest.go), shared and never written: the first
// view after an open takes the MANIFEST's name order as loaded and sorts,
// copies and hashes nothing, and a later one costs the merge of the p Puts
// and Deletes since the last into the n entries, O(n + p log p). A view
// then adds a pin per segment and, for a candidate in an indexed segment,
// its record's ordinal in that segment's key index: the one after the
// segment's last, as a compacted segment holds its records in name order,
// else a binary search. Index selection intersects each train's distinct
// key hashes with the per-segment key indexes (keyindex.go) and maps every
// record whose exact overlap passes MinJoinSize to its manifest entry, so
// a visit list costs the postings touched plus the matches, not a walk of
// the catalog. Candidates no index vouches for (active or frozen segments,
// corrupt index sections or posting lists, duplicated key hashes) are
// always visited and left to the probe prefilter, so indexed, fallback and
// mem-backend ranks answer alike.
//
// Consistency: a view describes one (manifest, segment table) state.
// viewLocked builds it under s.mu when a rank, List or Metas finds none;
// every site that changes either drops it under s.mu: Put, Delete, the
// compaction roll and swap (which moves records without bumping Gen),
// Close. Once published it changes only in seeds, which gains
// immutable entries under s.mu, and in its plans (rankplan.go), which lock
// for themselves. A query takes the view, its seed's lists and the segment
// pins in one critical section: a snapshot holding every Put or Delete
// that returned before the rank started.

import (
	"math/bits"
	"slices"
	"sort"
	"strings"

	"misketch/internal/cache"
	"misketch/internal/core"
)

type catalogView struct {
	entries []Meta              // the catalog table: every live record, sorted by name
	pins    map[uint64]struct{} // every segment an entry lives in
	segs    []viewSegment       // the segments with a usable key index
	// always lists, ascending, the non-empty candidates index selection
	// can never exclude: no usable index covers their record, or the
	// index flags them as repeating a key hash (prefilter-exempt).
	always     []int32
	maxRecords int                            // largest segs[i].ix.records()
	seeds      map[uint32]*seedView           // guarded by Store.mu
	plans      *cache.LRU[planKey, *rankPlan] // nil under testHookNoMemo
}

// viewSegment resolves one segment's index ordinals to entry positions.
type viewSegment struct {
	ix   *keyIndex
	pos  []int32 // ordinal → 1 + position in entries; 0: not a live candidate
	next int     // the ordinal viewLocked tries first: the last one's + 1
}

// seedView partitions the entries by what a query on one hash seed does
// with them. Each list holds ascending positions, i.e. is in name order.
type seedView struct {
	cands   []int32 // joinable candidates with at least one entry
	empty   []int32 // joinable candidates with none: ranked only when MinJoinSize < 0
	skipped []int32 // other seed or train role: reported as Skipped
}

// viewLocked returns the current catalog view, building it if a mutation
// dropped the last one. The caller holds s.mu.
func (s *Store) viewLocked() *catalogView {
	if s.view != nil {
		return s.view
	}
	v := &catalogView{
		entries: s.cat.merged(),
		pins:    make(map[uint64]struct{}),
		seeds:   make(map[uint32]*seedView),
	}
	if testHookNoMemo == nil || !testHookNoMemo(s) {
		v.plans = cache.NewLRU[planKey, *rankPlan](planCacheBytes)
	}
	fb, _ := s.backend.(*fsBackend)
	bySeg := make(map[uint64]*viewSegment) // nil: no usable index
	var vs *viewSegment
	for i := range v.entries {
		m := &v.entries[i]
		if i == 0 || m.Segment != v.entries[i-1].Segment { // once a run
			seen := false
			if vs, seen = bySeg[m.Segment]; !seen {
				v.pins[m.Segment] = struct{}{}
				// No pin needed: nothing retires a segment without s.mu.
				if fb != nil {
					if ix := fb.keyIndexOf(m.Segment); ix != nil {
						vs = &viewSegment{ix: ix, pos: make([]int32, ix.records())}
					}
				}
				bySeg[m.Segment] = vs
			}
		}
		if m.Role != core.RoleCandidate || m.Entries == 0 {
			continue // never selected: not ranked, or joins nothing
		}
		if vs != nil {
			ord, ok := vs.next, vs.next < len(vs.pos) && vs.ix.recOffsets[vs.next] == m.Offset
			if !ok {
				ord, ok = vs.ix.ordinalOf(m.Offset)
			}
			if ok {
				vs.pos[ord], vs.next = int32(i)+1, ord+1
				if !vs.ix.isDup(ord) {
					continue
				}
			}
			// Not in the index: fail open, always visit it.
		}
		v.always = append(v.always, int32(i))
	}
	for _, vs := range bySeg {
		if vs != nil {
			v.segs = append(v.segs, *vs)
			v.maxRecords = max(v.maxRecords, len(vs.pos))
		}
	}
	s.view = v
	return v
}

// seed returns the partition for one hash seed. The caller holds s.mu.
func (v *catalogView) seed(seed uint32) *seedView {
	if sv := v.seeds[seed]; sv != nil {
		return sv
	}
	sv := &seedView{}
	for i := range v.entries {
		switch m := &v.entries[i]; {
		case m.Seed != seed || m.Role != core.RoleCandidate:
			sv.skipped = append(sv.skipped, int32(i))
		case m.Entries == 0:
			sv.empty = append(sv.empty, int32(i))
		default:
			sv.cands = append(sv.cands, int32(i))
		}
	}
	// Remembering only seeds the catalog holds bounds the map by it.
	if len(sv.skipped) < len(v.entries) {
		v.seeds[seed] = sv
	}
	return sv
}

// prefixRange returns the positions [lo, hi) of the entries whose name
// starts with prefix — contiguous, because entries is sorted by name.
func (v *catalogView) prefixRange(prefix string) (lo, hi int32) {
	e := v.entries
	l := sort.Search(len(e), func(i int) bool { return e[i].Name >= prefix })
	h := sort.Search(len(e)-l, func(i int) bool { return !strings.HasPrefix(e[l+i].Name, prefix) })
	return int32(l), int32(l + h)
}

// within returns the run of the ascending positions ps inside [lo, hi).
func within(ps []int32, lo, hi int32) []int32 {
	a, _ := slices.BinarySearch(ps, lo)
	b, _ := slices.BinarySearch(ps, hi)
	return ps[a:b]
}

// selectScratch is selectVisit's pooled state; acc is all zero at rest.
type selectScratch struct {
	acc     []int64  // by index ordinal: the overlap summed so far
	touched []int32  // the ordinals with a nonzero acc
	crossed []int32  // the ordinals the last hash carried past the cutoff
	sel     []uint64 // bit p-lo: entry position p is selected
	read    int      // postings read by the last selectVisit
}

// selectVisit narrows eligible — the seed's non-empty candidates in
// [lo, hi) — to those a query must load, ascending (so in name order),
// and counts the ones the key indexes excluded without a decode: each
// was proven prunable for every train, so it is one pruned pair per
// query. A candidate is selected the moment its overlap with some train
// passes minJoin (overlaps only grow: weights and multiplicities are at
// least 1); once every eligible one is, no posting left could exclude
// anything, so none is read and eligible itself is the answer. A segment
// whose index is or turns bad contributes all its live candidates. The
// caller holds pins on every segment of the view.
func (sc *selectScratch) selectVisit(v *catalogView, seed uint32, eligible []int32, lo, hi int32, probes []*core.TrainProbe, minJoin int) (visit []int32, prunedAll int) {
	if len(sc.acc) < v.maxRecords {
		sc.acc = make([]int64, v.maxRecords)
	}
	// One bit per position: several trains (or the duplicate flag) can
	// select one candidate, which counts once; read in order, the bits
	// are the ascending visit list.
	sc.sel = append(sc.sel[:0], make([]uint64, (hi-lo+63)/64)...)
	sc.read = 0
	n := 0
	pick := func(p int32) {
		if p < lo || p >= hi || v.entries[p].Seed != seed {
			return
		}
		if w, b := (p-lo)/64, uint64(1)<<((p-lo)%64); sc.sel[w]&b == 0 {
			sc.sel[w] |= b
			n++
		}
	}
	for _, p := range within(v.always, lo, hi) {
		pick(p)
	}
	cut := int64(max(minJoin, 0)) // a touched ordinal holds at least 1
	for _, vs := range v.segs {
		ok := !vs.ix.bad.Load()
		for _, probe := range probes {
			hashes, mults := probe.DistinctKeyHashes()
			for i := 0; ok && i < len(hashes) && n < len(eligible); i++ {
				sc.crossed = sc.crossed[:0]
				ok = vs.ix.accumulate(hashes[i], int64(mults[i]), cut, sc)
				for _, ord := range sc.crossed {
					pick(vs.pos[ord] - 1)
				}
			}
			for _, ord := range sc.touched {
				sc.acc[ord] = 0
			}
			sc.touched = sc.touched[:0]
		}
		if !ok {
			// A posting list failed validation, now or in an earlier
			// query: the index vouches for nothing, so every live
			// candidate of the segment is visited, as if it had none.
			for _, p := range vs.pos {
				pick(p - 1)
			}
		}
	}
	if n == len(eligible) {
		return eligible, 0
	}
	visit = make([]int32, 0, n)
	for w, word := range sc.sel {
		for ; word != 0; word &= word - 1 {
			visit = append(visit, lo+int32(w*64+bits.TrailingZeros64(word)))
		}
	}
	return visit, len(eligible) - n
}
