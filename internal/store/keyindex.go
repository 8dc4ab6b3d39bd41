package store

// The per-segment inverted key index: the structure that turns candidate
// selection from O(catalog) into O(matching candidates). Coordinated
// sampling makes a (train, candidate) pair's sketch join size exactly
// computable from key hashes alone (core.KeyOverlap), so a sealed
// segment can precompute hash → posting list of (record, multiplicity)
// once and let every future query intersect the train's distinct hashes
// against it — exact overlap counts, no record decoded.
//
// Section layout (little-endian, appended right after a sealed
// segment's records, covered by the footer's whole-file CRC):
//
//	header (16 B): the section frame (segment.go), magic "MKIX", version 1
//	payload:
//	  recCount uvarint
//	  recOffsets: recCount × uvarint — candidate-record offsets within
//	              the segment, delta-coded (first absolute), ascending
//	  dupBitmap:  ceil(recCount/8) bytes — bit set when the record's
//	              sketch repeats a key hash (prefilter-exempt, see below)
//	  slotCount u32 — open-addressing table size (power of two, load
//	              factor <= 1/2; zero when the segment has no keys)
//	  keys: slotCount × u32 — key hash per slot
//	  refs: slotCount × u32 — posting-list offset+1 into the blob; 0 =
//	              empty slot
//	  postings:   per list: count uvarint, then count × (ordinal-delta
//	              uvarint, multiplicity uvarint), ordinals strictly
//	              ascending record positions in recOffsets
//
// A seal builds the section from its records' key hashes alone
// (segmentWriter.buildKeyIndex), holding each posting list in the form
// above as it grows, so it holds about what the section takes.
//
// Only candidate-role sketch records are indexed: train-role records and
// tombstones never rank, and a record the index omits is simply never
// selected — exactly the manifest's own admission rule. Records whose
// sketch repeats a key hash are malformed-but-tolerated input; ranking
// exempts them from the prefilter (they must fail or rank through the
// estimator exactly as the full walk would), so the index marks them in
// dupBitmap and selection always visits them.
//
// Fail-closed contract: parseKeyIndex checks the section's own CRC and
// its structure short of the posting lists — at open, on a goroutine of
// its own beside the MANIFEST parse (fsbackend.go), so before any posting
// is read; each list is validated when a query first reads it
// (accumulate), so a cold open pays only for the lists it reads. A parse
// defect leaves the segment unindexed; a list defect unindexes it from
// then on — that query and every later one visit all its live
// candidates. A corrupt index can cost time, never results.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"misketch/internal/binio"
)

// kixFrame frames the key index section (segment.go).
var kixFrame = sectionFrame{name: "key index", magic: "MKIX", version: 1}

const (
	// maxKixMult caps a single posting's multiplicity (and with it the
	// overlap accumulator's per-term magnitude). Both the encoder and
	// the parser enforce it, so a segment that legitimately exceeds the
	// cap is stored without an index rather than with one the parser
	// would reject.
	maxKixMult = 1 << 30
)

// kixList is one hash's posting list in its on-disk form as it grows: the
// last posting is held open, so a hash its record repeats can still
// raise that posting's multiplicity.
type kixList struct {
	hash      uint32
	n         uint32 // postings, the open one included
	prev      uint32 // the last closed posting's ordinal; 0 before one closes
	ord, mult uint32 // the open posting
	closed    []byte // the others: ordinal delta, multiplicity
}

// keyIndexBuilder accumulates the index while the segment's records are
// walked in offset order at seal time. Its postings take what they take
// on disk (2–3 bytes in a sel-shaped segment) until encode lays them out.
type keyIndexBuilder struct {
	recs    int
	last    int64  // the last record's offset
	offsets []byte // record offsets, delta-coded as on disk
	dup     []byte
	list    map[uint32]int32 // hash → its list in lists
	lists   []kixList
	bad     bool // a cap was exceeded; emit no index
}

func newKeyIndexBuilder() *keyIndexBuilder {
	return &keyIndexBuilder{list: make(map[uint32]int32)}
}

// add indexes one candidate record's key hashes. Records must arrive in
// strictly ascending offset order.
func (b *keyIndexBuilder) add(off int64, hashes []uint32) {
	ord := uint32(b.recs)
	b.recs++
	b.offsets = binio.AppendUvarint(b.offsets, uint64(off-b.last))
	b.last = off
	b.dup = append(b.dup, 0)
	dup := false
	for _, hk := range hashes {
		i, ok := b.list[hk]
		if !ok {
			b.list[hk] = int32(len(b.lists))
			b.lists = append(b.lists, kixList{hash: hk, n: 1, ord: ord, mult: 1})
			continue
		}
		l := &b.lists[i]
		if l.ord == ord {
			if l.mult++; l.mult > maxKixMult {
				b.bad = true
			}
			dup = true
			continue
		}
		l.closed = binio.AppendUvarint(binio.AppendUvarint(l.closed, uint64(l.ord-l.prev)), uint64(l.mult))
		l.prev, l.ord, l.mult = l.ord, ord, 1
		l.n++
	}
	if dup {
		b.dup[ord/8] |= 1 << (ord % 8)
	}
}

// encode assembles the on-disk section, sized first so it is written
// into one buffer of exactly its length. ok is false when the segment
// cannot be indexed within the format's bounds (the caller seals without
// an index and queries fall back to the walk).
func (b *keyIndexBuilder) encode() (section []byte, ok bool) {
	if b.bad || b.recs > math.MaxInt32 {
		return nil, false
	}
	slices.SortFunc(b.lists, func(x, y kixList) int { return cmp.Compare(x.hash, y.hash) })
	slots := 0
	if len(b.lists) > 0 {
		slots = 4
		for slots < 2*len(b.lists) {
			slots <<= 1
		}
	}
	dup := b.dup[:(b.recs+7)/8]
	size := uint64(binio.UvarintLen(uint64(b.recs)) + len(b.offsets) + len(dup) + 4 + 8*slots)
	for i := range b.lists {
		l := &b.lists[i]
		size += uint64(binio.UvarintLen(uint64(l.n)) + len(l.closed) +
			binio.UvarintLen(uint64(l.ord-l.prev)) + binio.UvarintLen(uint64(l.mult)))
	}
	// A list's ref (its blob offset + 1) is at most the payload's length,
	// so this one bound keeps every ref within its u32 too.
	if size > math.MaxUint32 {
		return nil, false
	}

	buf := make([]byte, sectionHeaderBytes, sectionHeaderBytes+int(size))
	buf = binio.AppendUvarint(buf, uint64(b.recs))
	buf = append(append(buf, b.offsets...), dup...)
	buf = binio.AppendU32(buf, uint32(slots))
	tableAt := len(buf)
	buf = buf[:tableAt+8*slots] // zeroed by make: every slot empty
	keys, refs := buf[tableAt:tableAt+4*slots], buf[tableAt+4*slots:]
	blob := len(buf)
	mask := uint32(slots - 1)
	for i := range b.lists {
		l := &b.lists[i]
		ref := uint32(len(buf)-blob) + 1
		buf = append(binio.AppendUvarint(buf, uint64(l.n)), l.closed...)
		buf = binio.AppendUvarint(binio.AppendUvarint(buf, uint64(l.ord-l.prev)), uint64(l.mult))
		j := l.hash & mask
		for binio.U32At(refs, int(j)*4) != 0 {
			j = (j + 1) & mask
		}
		binio.PutU32(keys[j*4:], l.hash)
		binio.PutU32(refs[j*4:], ref)
	}
	kixFrame.putHeader(buf)
	return buf, true
}

// keyIndex is a parsed index ready to be probed straight out of the
// segment mapping. Its posting lists are validated one by one as queries
// first read them; bad is sticky, and a caller that finds it set must not
// read the index at all.
type keyIndex struct {
	recOffsets []int64
	dup        []byte
	keys       []byte // 4 bytes per slot
	refs       []byte // 4 bytes per slot
	mask       uint32
	slots      int
	postings   []byte
	checked    []atomic.Uint64 // bit s: slot s's posting list validated
	bad        atomic.Bool     // some posting list failed validation
}

// records returns the number of indexed candidate records.
func (ix *keyIndex) records() int { return len(ix.recOffsets) }

// ordinalOf maps a record offset to its index ordinal.
func (ix *keyIndex) ordinalOf(off int64) (int, bool) {
	i := sort.Search(len(ix.recOffsets), func(i int) bool { return ix.recOffsets[i] >= off })
	if i < len(ix.recOffsets) && ix.recOffsets[i] == off {
		return i, true
	}
	return 0, false
}

// isDup reports whether the record's sketch repeats a key hash (and must
// therefore always be visited, mirroring the prefilter exemption).
func (ix *keyIndex) isDup(ord int) bool {
	return ix.dup[ord/8]&(1<<(ord%8)) != 0
}

// accumulate adds weight × multiplicity into sc.acc[ordinal] for every
// posting of hk, appending newly touched ordinals to sc.touched (so the
// caller can reset acc in O(touched)) and those whose sum this hash
// carried past cut to sc.crossed. The list is validated on its first
// read; one that fails is not read, marks ix bad, and makes accumulate
// report false. sc.acc must have records() elements.
func (ix *keyIndex) accumulate(hk uint32, weight, cut int64, sc *selectScratch) bool {
	if ix.slots == 0 {
		return true
	}
	i := hk & ix.mask
	for probes := 0; probes < ix.slots; probes++ {
		ref := binio.U32At(ix.refs, int(i)*4)
		if ref == 0 {
			return true
		}
		if binio.U32At(ix.keys, int(i)*4) == hk {
			off := int(ref) - 1
			// Racing first reads each validate the list and agree, so
			// its bit needs no lock.
			if w, bit := &ix.checked[i/64], uint64(1)<<(i%64); w.Load()&bit == 0 {
				if validatePostings(ix.postings, off, uint64(len(ix.recOffsets))) != nil {
					ix.bad.Store(true)
					return false
				}
				w.Or(bit)
			}
			n, sz := binio.UvarintAt(ix.postings, off)
			off += sz
			sc.read += int(n)
			var ord uint32
			for j := uint64(0); j < n; j++ {
				d, sz := binio.UvarintAt(ix.postings, off)
				off += sz
				m, sz := binio.UvarintAt(ix.postings, off)
				off += sz
				ord += uint32(d)
				was := sc.acc[ord]
				now := was + weight*int64(m)
				sc.acc[ord] = now
				if was == 0 {
					sc.touched = append(sc.touched, int32(ord))
				}
				if was <= cut && now > cut {
					sc.crossed = append(sc.crossed, int32(ord))
				}
			}
			return true
		}
		i = (i + 1) & ix.mask
	}
	return true
}

// parseKeyIndex decodes a key index section and validates all but its
// posting lists: header, checksum (skippable so the fuzz target can reach
// the structural checks), record offsets and table geometry. Anything off
// returns an error and the caller treats the segment as unindexed. Each
// posting list — ordinals in range and strictly ascending, multiplicities
// within [1, maxKixMult], varints well formed — is validated by
// accumulate before its first read, which past that check trusts the
// bytes without per-probe bounds checks.
func parseKeyIndex(section []byte, verifyCRC bool) (*keyIndex, error) {
	payload, err := kixFrame.openSection(section, true, verifyCRC)
	if err != nil {
		return nil, err
	}

	recCount, p := binio.UvarintAt(payload, 0)
	if p <= 0 || recCount > uint64(len(payload)) {
		return nil, fmt.Errorf("store: implausible key index record count %d", recCount)
	}
	ix := &keyIndex{recOffsets: make([]int64, recCount)}
	prev := int64(0)
	for i := range ix.recOffsets {
		d, n := binio.UvarintAt(payload, p)
		off := prev + int64(d)
		if n <= 0 || d > math.MaxInt64 || off <= prev && i > 0 || off <= 0 {
			return nil, fmt.Errorf("store: key index record offset %d malformed or not ascending", i)
		}
		p += n
		prev = off
		ix.recOffsets[i] = off
	}
	r := binio.NewReader(payload[p:])
	ix.dup = r.Bytes((int(recCount) + 7) / 8)
	slots := r.U32()
	if r.Err != nil || slots != 0 && (slots&(slots-1) != 0 || uint64(slots) > uint64(r.Left())/8) {
		return nil, fmt.Errorf("store: key index truncated or implausible slot count %d", slots)
	}
	ix.slots = int(slots)
	ix.mask = slots - 1
	ix.keys = r.Bytes(4 * ix.slots)
	ix.refs = r.Bytes(4 * ix.slots)
	ix.postings = r.Bytes(r.Left())
	ix.checked = make([]atomic.Uint64, (ix.slots+63)/64)
	return ix, nil
}

// validatePostings structurally checks the posting list at off.
func validatePostings(blob []byte, off int, recCount uint64) error {
	n, sz := binio.UvarintAt(blob, off)
	if sz <= 0 || n == 0 || n > recCount {
		return fmt.Errorf("bad posting count %d", n)
	}
	off += sz
	var ord uint64
	for j := uint64(0); j < n; j++ {
		d, sz := binio.UvarintAt(blob, off)
		if sz <= 0 {
			return fmt.Errorf("posting %d truncated", j)
		}
		off += sz
		if j == 0 {
			ord = d
		} else {
			if d == 0 {
				return fmt.Errorf("posting %d ordinal not ascending", j)
			}
			ord += d
		}
		if ord >= recCount {
			return fmt.Errorf("posting %d ordinal %d out of range", j, ord)
		}
		m, sz := binio.UvarintAt(blob, off)
		if sz <= 0 || m == 0 || m > maxKixMult {
			return fmt.Errorf("posting %d multiplicity %d out of range", j, m)
		}
		off += sz
	}
	return nil
}
