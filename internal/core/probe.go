package core

import (
	"fmt"
	"slices"
	"sync"

	"misketch/internal/mi"
)

// TrainProbe is a discovery query compiled against its train sketch: the
// train side of every candidate join is invariant across the query, so
// the hash→entry index, the partition into numeric/categorical value
// views, and the ascending value order are built once here and probed by
// every candidate without further allocation. A TrainProbe is immutable
// after compilation, as its train sketch must be, and safe to share
// across concurrent rankers (each ranker brings its own Scratch).
type TrainProbe struct {
	train *Sketch
	// Open-addressing hash table from key hash to the packed range
	// [(val>>32)−1, uint32(val)) into order; a zero val marks an empty
	// slot (the +1 start bias keeps real entries nonzero). Linear
	// probing over a half-loaded power-of-two table resolves a lookup in
	// ~1–2 slot inspections — the single hottest map in a ranking query,
	// probed once per candidate entry.
	htabKey []uint32
	htabVal []uint64
	mask    uint32
	order   []int32 // train entry indices grouped by key hash
	// valOrder is the ascending (value, entry) order of a numeric train
	// sketch (nil for categorical), from which each candidate's joined
	// x-ordering is derived by an O(entries) filter instead of a sort.
	valOrder []int32
	// distinct/distMult expose the train's distinct key hashes, ascending,
	// and their entry multiplicities (parallel slices) — the exact
	// quantities an inverted key index needs to compute KeyOverlap without
	// touching candidate sketches.
	distinct []uint32
	distMult []int32
}

// CompileTrainProbe builds the per-query index over a train sketch.
func CompileTrainProbe(train *Sketch) *TrainProbe {
	n := train.Len()
	// The distinct hashes ascending, each with its multiplicity: a sorted
	// copy of the keys, run-length coded in place.
	distinct := slices.Clone(train.KeyHashes)
	slices.Sort(distinct)
	var mults []int32
	for i := 0; i < n; {
		j := i + 1
		for j < n && distinct[j] == distinct[i] {
			j++
		}
		distinct[len(mults)] = distinct[i]
		mults = append(mults, int32(j-i))
		i = j
	}
	distinct = distinct[:len(mults)]
	size := 4
	for size < 2*len(distinct) {
		size <<= 1
	}
	p := &TrainProbe{
		train:    train,
		htabKey:  make([]uint32, size),
		htabVal:  make([]uint64, size),
		mask:     uint32(size - 1),
		order:    make([]int32, n),
		valOrder: train.NumValOrder(),
		distinct: distinct,
		distMult: mults,
	}
	slotOf := func(hk uint32) uint32 {
		i := hk & p.mask
		for p.htabVal[i] != 0 && p.htabKey[i] != hk {
			i = (i + 1) & p.mask
		}
		return i
	}
	var off uint32
	for d, hk := range distinct {
		i := slotOf(hk)
		p.htabKey[i] = hk
		p.htabVal[i] = uint64(off+1)<<32 | uint64(off)
		off += uint32(mults[d])
	}
	for i, hk := range train.KeyHashes {
		s := slotOf(hk)
		v := p.htabVal[s]
		end := uint32(v)
		p.order[end] = int32(i)
		p.htabVal[s] = v&^uint64(^uint32(0)) | uint64(end+1)
	}
	return p
}

// Train returns the sketch the probe was compiled from.
func (p *TrainProbe) Train() *Sketch { return p.train }

// DistinctKeyHashes returns the train sketch's distinct key hashes and,
// parallel to them, how many train entries carry each hash. Summing
// multiplicity × (candidate multiplicity) over the hashes a candidate
// shares reproduces KeyOverlap exactly — the contract inverted key
// indexes rely on to select candidates without decoding them. The
// slices are owned by the probe and must not be modified; the hashes
// ascend, so two trains with one key sample give equal slices.
func (p *TrainProbe) DistinctKeyHashes() (hashes []uint32, multiplicities []int32) {
	return p.distinct, p.distMult
}

// Scratch owns the reusable per-worker state of the ranking hot path:
// the estimator scratch (with the joined-pair buffers) plus the join
// match list, the marker arrays the ordering hints are derived from and
// the join memo.
// The zero value is ready to use; a Scratch must not be shared between
// concurrent rankers.
type Scratch struct {
	// MI is the estimator scratch, including the joined-pair buffers the
	// scratch join fills.
	MI mi.Scratch

	candOf       []int32 // per train entry: matched cand entry + 1, or 0
	matchedTrain []int32 // per train entry: joined index + 1, or 0
	// A candidate entry can join several train entries (repeated train
	// keys), so the joined indices per candidate entry form chains:
	// candFirst heads them and nextJoined links them (both offset by 1).
	candFirst  []int32
	nextJoined []int32
	// chained: the arrays above describe the match in candOf, each as far
	// as its side is numeric.
	chained bool
	xOrder  []int32 // joined x ordering hint (train value order filtered)
	yOrder  []int32 // joined y ordering hint (cand value order filtered)

	// The join memo: the last successful match, by its probe and a copy of
	// the candidate key hashes it matched (a candidate's own may borrow a
	// segment mapping no later query pins). The seed check comes first, so
	// the probe fixes the seed too. A candidate carrying equal hashes
	// matches identically: it reuses candOf, the overlap and its Rows. The
	// memo holds its probe, so no other probe can take its address.
	memoProbe   *TrainProbe // nil: nothing remembered
	memoKeys    []uint32
	memoOverlap int
	rows        *JoinRows // the memo's Rows, once asked for
	// trainSide, when nonzero, names to the cheap tier the train side the
	// joined-pair buffers hold: the memo's match's, or with sideRows set
	// probe sideProbe's at sideRows. gathers numbers the names.
	trainSide uint64
	sideRows  *JoinRows
	sideProbe *TrainProbe
	gathers   uint64
}

// JoinRows is a match as a value: per train entry, the candidate entry it
// joined + 1, or 0 — which train rows the joined sample lists, in order.
type JoinRows struct {
	candOf []int32
}

// ScratchPool recycles Scratch values across ranking queries. A
// long-running service serves many queries whose workers each need a
// Scratch; drawing them from a pool keeps the grown-to-size join
// buffers, neighbor structures, and interning maps hot across requests
// instead of reallocating them per query. The zero value is ready to
// use; a ScratchPool is safe for concurrent use.
type ScratchPool struct {
	p sync.Pool
}

// Get returns a Scratch ready for use, recycled when one is available.
func (sp *ScratchPool) Get() *Scratch {
	if v := sp.p.Get(); v != nil {
		return v.(*Scratch)
	}
	return new(Scratch)
}

// Put returns a Scratch to the pool. The caller must not use s after
// Put.
func (sp *ScratchPool) Put(s *Scratch) {
	if s != nil {
		sp.p.Put(s)
	}
}

// JoinScratch matches every train-sketch entry against the candidate
// sketch and returns the paired values, exactly like Join, but probing
// the compiled train index with zero steady-state allocations: the
// sample is written into the scratch's joined-pair buffers, which stay
// valid until the next join on the same scratch. Both sketches must
// share a hash seed. Unlike Join, duplicate candidate key hashes are
// reported only when they actually join a train entry; duplicates that
// match nothing cannot affect the sample. The scratch is left ready for
// EstimateJoined.
func (p *TrainProbe) JoinScratch(cand *Sketch, s *Scratch) (JoinedSample, error) {
	return p.JoinAbove(cand, -1, true, s)
}

// JoinAbove is JoinScratch for a caller that discards joins of at most
// minJoin samples, in one probe of the train index: a pair whose key
// overlap (KeyOverlap's count, which the probe yields before any value
// is read) is at or below minJoin comes back with only Size set and
// nothing emitted. A duplicated candidate hash that joins is an error
// whatever the overlap. exact says whether EstimateJoined will follow;
// a caller that only reads the sample, like the cascade's cheap tier,
// passes false and spares the ordering-hint chains.
func (p *TrainProbe) JoinAbove(cand *Sketch, minJoin int, exact bool, s *Scratch) (JoinedSample, error) {
	overlap, err := p.match(cand, s)
	if err != nil || overlap <= minJoin {
		return JoinedSample{Size: overlap}, err
	}
	if exact && (p.valOrder != nil || cand.Numeric) {
		p.chains(cand, s, overlap)
	}
	if s.trainSide == 0 || s.sideRows != nil {
		// The first sample of this match: its train side is gathered once
		// for every candidate that shares the key sample.
		s.gatherTrain(p.train, s.candOf)
		s.sideRows = nil
	}
	js := JoinedSample{Size: overlap, Y: s.trainColumn(p.train)}
	if cand.Numeric {
		s.MI.JoinXNum = gather(s.MI.JoinXNum, cand.Nums, s.candOf, true)
		js.X = mi.NumericColumn(s.MI.JoinXNum)
	} else {
		s.MI.JoinXStr = gather(s.MI.JoinXStr, cand.Strs, s.candOf, true)
		js.X = mi.CategoricalColumn(s.MI.JoinXStr)
	}
	return js, nil
}

// match is the one loop that probes the train index with candidate key
// hashes. It scatters the matches by train entry into s.candOf (matched
// candidate entry + 1, or 0) and returns their count, the sketch join
// size. Candidate key hashes are unique, so each train entry matches at
// most one candidate entry, and a second hit on the same slot means a
// duplicated candidate hash — exactly the condition Join rejects. A
// candidate whose key hashes equal those of the last match on s against
// this probe is answered from the join memo, with no probe at all.
func (p *TrainProbe) match(cand *Sketch, s *Scratch) (int, error) {
	train := p.train
	if train.Seed != cand.Seed {
		return 0, fmt.Errorf("core: sketches built with different seeds (%#x vs %#x)", train.Seed, cand.Seed)
	}
	s.chained = false
	if s.memoProbe == p && slices.Equal(s.memoKeys, cand.KeyHashes) {
		return s.memoOverlap, nil
	}
	// Forgotten before candOf changes: a failing match leaves it half
	// written.
	s.memoProbe, s.trainSide, s.rows = nil, 0, nil
	candOf := slices.Grow(s.candOf[:0], train.Len())[:train.Len()]
	clear(candOf)
	s.candOf = candOf
	overlap := 0
	mask := p.mask
	for j, hk := range cand.KeyHashes {
		i := hk & mask
		for {
			v := p.htabVal[i]
			if v == 0 {
				break
			}
			if p.htabKey[i] == hk {
				for _, ti := range p.order[uint32(v>>32)-1 : uint32(v)] {
					if candOf[ti] != 0 {
						return 0, fmt.Errorf("core: candidate sketch has duplicate key hash %#x", train.KeyHashes[ti])
					}
					candOf[ti] = int32(j) + 1
					overlap++
				}
				break
			}
			i = (i + 1) & mask
		}
	}
	s.memoProbe, s.memoOverlap = p, overlap
	s.memoKeys = append(s.memoKeys[:0], cand.KeyHashes...)
	return overlap, nil
}

// gather emits one side of the sample match left in candOf, in ascending
// train-entry order: src is the train's values, or with byCand the
// candidate's. That order is the one Join emits, and it is what keeps
// every float sum downstream — the cheap tier's first-touch joint order,
// the exact estimators — bit-identical to the legacy path without
// materializing and sorting a match list. An empty result is non-nil, so
// the column it backs still knows its kind.
func gather[T any](dst, src []T, candOf []int32, byCand bool) []T {
	dst = dst[:0]
	for ti, cj := range candOf {
		if cj == 0 {
			continue
		}
		if byCand {
			ti = int(cj) - 1
		}
		dst = append(dst, src[ti])
	}
	if dst == nil {
		dst = []T{}
	}
	return dst
}

// chains builds, from the match left in candOf, what hints reads, one
// numeric side at a time: for a train with a value order each matched
// train entry's joined index, for a numeric candidate the chain of
// joined indices each of its entries produced (a candidate entry joins
// several train entries when train keys repeat). A categorical side gets
// nothing, and only a pair headed for the exact tier comes here.
func (p *TrainProbe) chains(cand *Sketch, s *Scratch, overlap int) {
	s.chained = true
	if p.valOrder != nil {
		s.matchedTrain = slices.Grow(s.matchedTrain[:0], len(s.candOf))[:len(s.candOf)] // every entry is written below
		joined := int32(0)
		for ti, cj := range s.candOf {
			if cj != 0 {
				joined++
				s.matchedTrain[ti] = joined
			} else {
				s.matchedTrain[ti] = 0
			}
		}
	}
	if cand.Numeric {
		s.candFirst = slices.Grow(s.candFirst[:0], cand.Len())[:cand.Len()]
		clear(s.candFirst)
		s.nextJoined = slices.Grow(s.nextJoined[:0], overlap)[:overlap] // every entry is written below
		joined := int32(0)
		for _, cj := range s.candOf {
			if cj != 0 {
				s.nextJoined[joined] = s.candFirst[cj-1]
				joined++
				s.candFirst[cj-1] = joined
			}
		}
	}
}

// hints derives the estimator's ordering hints for the sample produced
// by the latest JoinScratch, one per numeric side: the joined train
// side's ascending order (the probe's compile-once value order filtered
// down to matched entries) and the joined candidate side's (the
// candidate's memoized value order walked through its chains) — O(entries)
// each, no comparisons, so no estimator sorts on the ranking hot path.
// Mixed-KSG reads both, DC-KSG its numeric column's; a categorical side
// has none, nor has a side holding a NaN (no value order) or a join that
// built no chains: the estimator then sorts for itself — same bits.
func (p *TrainProbe) hints(cand *Sketch, s *Scratch) mi.Hints {
	var h mi.Hints
	if !s.chained {
		return h
	}
	if p.valOrder != nil {
		xOrder := s.xOrder[:0]
		for _, ti := range p.valOrder {
			if joined := s.matchedTrain[ti]; joined != 0 {
				xOrder = append(xOrder, joined-1)
			}
		}
		s.xOrder, h.XOrder = xOrder, xOrder
	}
	if candOrder := cand.NumValOrder(); candOrder != nil {
		yOrder := s.yOrder[:0]
		for _, j := range candOrder {
			for joined := s.candFirst[j]; joined != 0; joined = s.nextJoined[joined-1] {
				yOrder = append(yOrder, joined-1)
			}
		}
		s.yOrder, h.YOrder = yOrder, yOrder
	}
	return h
}

// EstimateJoined applies the type-appropriate exact MI estimator to the
// sample the latest join on s produced for this probe and candidate
// (JoinScratch, or JoinAbove with exact set; after one without, the
// estimate is the same but Mixed-KSG and DC-KSG pay the sorts the hints
// spare them). Splitting the join from the estimate lets a caller
// compute the join once and feed it to several consumers — the cascaded
// ranker scores the joined sample with the cheap binned tier first and
// only calls EstimateJoined on candidates that can still contend. The
// result is bit-identical to EstimateMIScratch on the same pair: the
// ordering hints are derived from the scratch's join state exactly as
// there, and neither the cheap tier nor this call disturbs that state.
func (p *TrainProbe) EstimateJoined(cand *Sketch, js JoinedSample, k int, s *Scratch) mi.Result {
	return s.MI.EstimateHinted(js.Y, js.X, k, p.hints(cand, s))
}

// CheapMI is the cheap tier's score of js, the sample the latest join on
// s produced: mi.Scratch.CheapMI(js.Y, js.X, bins), bit for bit, except
// that candidates the join memo found to share a key sample also share
// the reduction of its train side. A non-nil ky is filled with the
// candidate side's (mi.Scratch.CheapMIKeep), for CheapMIKept.
func (s *Scratch) CheapMI(js JoinedSample, ky *mi.CheapY, bins int) mi.CheapResult {
	return s.MI.CheapMIKeep(s.trainSide, js.Y, js.X, ky, bins)
}

// Rows returns the latest successful match on s as a value. Candidates
// the join memo matched as one share one value.
func (s *Scratch) Rows() *JoinRows {
	if s.rows == nil {
		s.rows = &JoinRows{slices.Clone(s.candOf)}
	}
	return s.rows
}

// CheapMIKept is CheapMI, bit for bit, for a pair joined before against a
// train with the same key hashes in the same order, from that join's Rows
// and the candidate side it filled: the candidate is not read.
func (p *TrainProbe) CheapMIKept(rows *JoinRows, y *mi.CheapY, bins int, s *Scratch) mi.CheapResult {
	if s.trainSide == 0 || s.sideRows != rows || s.sideProbe != p {
		s.gatherTrain(p.train, rows.candOf)
		s.sideRows, s.sideProbe = rows, p
	}
	return s.MI.CheapMIKeep(s.trainSide, s.trainColumn(p.train), mi.Column{}, y, bins)
}

// gatherTrain gathers train's side of the match candOf into the
// joined-pair buffers, under a name no column on s has had.
func (s *Scratch) gatherTrain(train *Sketch, candOf []int32) {
	if train.Numeric {
		s.MI.JoinYNum = gather(s.MI.JoinYNum, train.Nums, candOf, false)
	} else {
		s.MI.JoinYStr = gather(s.MI.JoinYStr, train.Strs, candOf, false)
	}
	s.gathers++
	s.trainSide = s.gathers
}

// trainColumn is the train side the joined-pair buffers hold.
func (s *Scratch) trainColumn(train *Sketch) mi.Column {
	if train.Numeric {
		return mi.NumericColumn(s.MI.JoinYNum)
	}
	return mi.CategoricalColumn(s.MI.JoinYStr)
}

// EstimateMIScratch joins the candidate against the compiled train probe
// and applies the type-appropriate MI estimator on the worker's scratch
// state — the allocation-free core of a ranking query. The result is
// bit-identical to EstimateMI on the same sketches.
func EstimateMIScratch(p *TrainProbe, cand *Sketch, k int, s *Scratch) (mi.Result, error) {
	js, err := p.JoinScratch(cand, s)
	if err != nil {
		return mi.Result{}, err
	}
	return p.EstimateJoined(cand, js, k, s), nil
}
