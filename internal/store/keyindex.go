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
// Only candidate-role sketch records are indexed: train-role records and
// tombstones never rank, and a record the index omits is simply never
// selected — exactly the manifest's own admission rule. Records whose
// sketch repeats a key hash are malformed-but-tolerated input; ranking
// exempts them from the prefilter (they must fail or rank through the
// estimator exactly as the full walk would), so the index marks them in
// dupBitmap and selection always visits them.
//
// Fail-closed contract: parseKeyIndex checks the section's own CRC and
// its structure short of the posting lists; each list is validated when
// a query first reads it (accumulate), so a cold open pays only for the
// lists it reads. A parse defect leaves the segment unindexed; a list
// defect unindexes it from then on — that query and every later one
// visit all its live candidates. A corrupt index can cost time, never
// results.

import (
	"fmt"
	"math"
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

// kixPost is one posting: a record ordinal (position in recOffsets) and
// how many of the record's sketch entries carry the hash.
type kixPost struct {
	ord  uint32
	mult uint32
}

// keyIndexBuilder accumulates the index while the segment's records are
// walked in offset order at seal time.
type keyIndexBuilder struct {
	offsets []int64
	dup     []byte
	posts   map[uint32][]kixPost
	keys    []uint32 // distinct hashes, insertion order
	bad     bool     // a cap was exceeded; emit no index
}

func newKeyIndexBuilder() *keyIndexBuilder {
	return &keyIndexBuilder{posts: make(map[uint32][]kixPost)}
}

// add indexes one candidate record's key hashes. Records must arrive in
// strictly ascending offset order.
func (b *keyIndexBuilder) add(off int64, hashes []uint32) {
	ord := uint32(len(b.offsets))
	b.offsets = append(b.offsets, off)
	b.dup = append(b.dup, 0)
	dup := false
	for _, hk := range hashes {
		pl := b.posts[hk]
		if n := len(pl); n > 0 && pl[n-1].ord == ord {
			pl[n-1].mult++
			if pl[n-1].mult > maxKixMult {
				b.bad = true
			}
			dup = true
			continue
		}
		if len(pl) == 0 {
			b.keys = append(b.keys, hk)
		}
		b.posts[hk] = append(pl, kixPost{ord: ord, mult: 1})
	}
	if dup {
		b.dup[ord/8] |= 1 << (ord % 8)
	}
}

// encode assembles the on-disk section. ok is false when the segment
// cannot be indexed within the format's bounds (the caller seals without
// an index and queries fall back to the walk).
func (b *keyIndexBuilder) encode() (section []byte, ok bool) {
	if b.bad || len(b.offsets) > math.MaxInt32 {
		return nil, false
	}
	sort.Slice(b.keys, func(i, j int) bool { return b.keys[i] < b.keys[j] })

	payload := make([]byte, 0, 64+8*len(b.offsets))
	payload = binio.AppendUvarint(payload, uint64(len(b.offsets)))
	prev := int64(0)
	for _, off := range b.offsets {
		payload = binio.AppendUvarint(payload, uint64(off-prev))
		prev = off
	}
	payload = append(payload, b.dup[:(len(b.offsets)+7)/8]...)

	slots := 0
	if len(b.keys) > 0 {
		slots = 4
		for slots < 2*len(b.keys) {
			slots <<= 1
		}
	}
	payload = binio.AppendU32(payload, uint32(slots))
	tableAt := len(payload)
	payload = append(payload, make([]byte, 8*slots)...)
	keys, refs := payload[tableAt:tableAt+4*slots], payload[tableAt+4*slots:tableAt+8*slots]

	var blob []byte
	mask := uint32(slots - 1)
	for _, hk := range b.keys {
		if uint64(len(blob))+1 > math.MaxUint32 {
			return nil, false
		}
		ref := uint32(len(blob)) + 1
		pl := b.posts[hk]
		blob = binio.AppendUvarint(blob, uint64(len(pl)))
		prevOrd := uint32(0)
		for i, p := range pl {
			d := p.ord
			if i > 0 {
				d = p.ord - prevOrd
			}
			prevOrd = p.ord
			blob = binio.AppendUvarint(blob, uint64(d))
			blob = binio.AppendUvarint(blob, uint64(p.mult))
		}
		i := hk & mask
		for binio.U32At(refs, int(i)*4) != 0 {
			i = (i + 1) & mask
		}
		binio.PutU32(keys[i*4:], hk)
		binio.PutU32(refs[i*4:], ref)
	}
	payload = append(payload, blob...)
	if uint64(len(payload)) > math.MaxUint32 {
		return nil, false
	}

	return kixFrame.appendSection(make([]byte, 0, sectionHeaderBytes+len(payload)), payload), true
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

	r := binio.NewReader(payload)
	recCount := r.Uvarint()
	if r.Err != nil || recCount > uint64(len(payload)) {
		return nil, fmt.Errorf("store: implausible key index record count %d", recCount)
	}
	ix := &keyIndex{recOffsets: make([]int64, 0, recCount)}
	prev := int64(0)
	for i := uint64(0); i < recCount; i++ {
		d := r.Uvarint()
		off := prev + int64(d)
		if r.Err != nil || d > math.MaxInt64 || off <= prev && i > 0 || off <= 0 {
			return nil, fmt.Errorf("store: key index record offset %d malformed or not ascending", i)
		}
		prev = off
		ix.recOffsets = append(ix.recOffsets, off)
	}
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
