package store

// Unit and fuzz coverage for the key index section itself: round-trip
// fidelity against a brute-force model, encoding determinism, and the
// fail-closed parse contract (corrupt or truncated sections must error,
// never panic, never misattribute a posting).

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"misketch/internal/binio"
	"misketch/internal/core"
)

// kixFixture builds a deterministic builder fixture: nRec records at
// ascending offsets, each with a hash list drawn from a small universe
// (so posting lists are dense), with every dupEvery-th record repeating
// one hash.
func kixFixture(nRec, universe, perRec, dupEvery int, seed int64) (*keyIndexBuilder, []int64, [][]uint32) {
	rng := rand.New(rand.NewSource(seed))
	kb := newKeyIndexBuilder()
	var offs []int64
	var lists [][]uint32
	off := int64(segHeaderBytes)
	for r := 0; r < nRec; r++ {
		seen := map[uint32]bool{}
		var hs []uint32
		for len(hs) < perRec {
			hk := uint32(rng.Intn(universe))*2654435761 + 1
			if seen[hk] {
				continue
			}
			seen[hk] = true
			hs = append(hs, hk)
		}
		if dupEvery > 0 && r%dupEvery == 0 {
			hs = append(hs, hs[0]) // malformed: repeated hash
		}
		kb.add(off, hs)
		offs = append(offs, off)
		lists = append(lists, hs)
		off += int64(50 + rng.Intn(200))
	}
	return kb, offs, lists
}

func TestKeyIndexRoundTrip(t *testing.T) {
	kb, offs, lists := kixFixture(300, 64, 8, 7, 1)
	section, ok := kb.encode()
	if !ok {
		t.Fatal("encode failed on a well-formed fixture")
	}
	ix, err := parseKeyIndex(section, true)
	if err != nil {
		t.Fatalf("parse round-trip: %v", err)
	}
	if ix.records() != len(offs) {
		t.Fatalf("records = %d, want %d", ix.records(), len(offs))
	}
	for r, off := range offs {
		ord, ok := ix.ordinalOf(off)
		if !ok || ord != r {
			t.Fatalf("ordinalOf(%d) = %d,%v, want %d", off, ord, ok, r)
		}
		if _, ok := ix.ordinalOf(off + 1); ok {
			t.Fatalf("ordinalOf(%d) hit a nonexistent offset", off+1)
		}
		wantDup := r%7 == 0
		if ix.isDup(r) != wantDup {
			t.Fatalf("isDup(%d) = %v, want %v", r, ix.isDup(r), wantDup)
		}
	}
	// Brute-force model: accumulate each probe hash with a weight and
	// compare per-record totals.
	model := make(map[uint32]map[int]int64) // hash -> ord -> multiplicity
	for r, hs := range lists {
		for _, hk := range hs {
			if model[hk] == nil {
				model[hk] = map[int]int64{}
			}
			model[hk][r]++
		}
	}
	// Cutoff 3 at weight 3: a record crosses on a hash it repeats.
	sc := &selectScratch{acc: make([]int64, ix.records())}
	for hk, byOrd := range model {
		sc.touched, sc.crossed = sc.touched[:0], sc.crossed[:0]
		if !ix.accumulate(hk, 3, 3, sc) {
			t.Fatalf("hash %#x: a well-formed posting list failed validation", hk)
		}
		want, crossed := map[int]int64{}, 0
		for ord, m := range byOrd {
			want[ord] = 3 * m
			if m > 1 {
				crossed++
			}
		}
		if len(sc.touched) != len(want) || len(sc.crossed) != crossed {
			t.Fatalf("hash %#x touched %d records and carried %d past the cutoff, want %d and %d",
				hk, len(sc.touched), len(sc.crossed), len(want), crossed)
		}
		for _, ord := range sc.crossed {
			if sc.acc[ord] <= 3 {
				t.Fatalf("hash %#x record %d: crossed at %d", hk, ord, sc.acc[ord])
			}
		}
		for _, ord := range sc.touched {
			if sc.acc[ord] != want[int(ord)] {
				t.Fatalf("hash %#x record %d: acc %d, want %d", hk, ord, sc.acc[ord], want[int(ord)])
			}
			sc.acc[ord] = 0
		}
	}
	// A hash absent from every record touches nothing.
	sc.touched = sc.touched[:0]
	if ix.accumulate(0xffffffff, 1, 0, sc); len(sc.touched) != 0 {
		t.Fatalf("absent hash touched %d records", len(sc.touched))
	}
}

// TestKeyIndexBytesPinned pins the section bytes of several builder
// shapes to sha256 digests taken from the map-of-posting-slices builder
// the encoded-size builder replaced: repeated hashes, an empty segment,
// multiplicities above 1 (adjacent and not), and ordinal deltas of two
// and three varint bytes across more than 2¹⁴ records.
func TestKeyIndexBytesPinned(t *testing.T) {
	mults := newKeyIndexBuilder()
	off := int64(segHeaderBytes)
	for r, hs := range [][]uint32{{7, 7, 7, 9}, {}, {9, 4, 9, 7, 9}, {4}, {5, 5}, {7, 4, 7}} {
		mults.add(off, hs)
		off += int64(8 * (r + 3))
	}
	for _, c := range []struct {
		name string
		kb   func() *keyIndexBuilder
		want string
	}{
		{"dups", func() *keyIndexBuilder { kb, _, _ := kixFixture(300, 64, 8, 7, 1); return kb }, "8f4bec661c454e71cc080f76ac32b40f0f68608a860183969b7f3c5a72b97a5d"},
		{"empty", newKeyIndexBuilder, "0257c6e517d1d8b01d418bdf8ad387846db56f9d1230734e8b42d8b66a711567"},
		{"multiplicities", func() *keyIndexBuilder { return mults }, "c44597d00c626546336c53f3302c56c949830d9d333deca3aba0fb01f084546b"},
		{"wide-deltas", func() *keyIndexBuilder { kb, _, _ := kixFixture(1<<14+500, 1<<16, 4, 0, 2); return kb }, "c0b45c4134596373f409d7f5d1d6ee50e9a59db6f50ea6761345e162ded638cb"},
		{"dense-deltas", func() *keyIndexBuilder { kb, _, _ := kixFixture(1<<14+10, 300, 40, 97, 3); return kb }, "38a076c0cbfd6e515246a2a8ece2445b6963c1a4affb76839948566195e58cfa"},
	} {
		section, ok := c.kb().encode()
		if !ok {
			t.Fatalf("%s: encode failed", c.name)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(section)); got != c.want {
			t.Errorf("%s: section (%d bytes) sha256 %s, want %s", c.name, len(section), got, c.want)
		}
	}
}

// refKixBuilder is the builder the encoded-size one replaced: one
// 8-byte posting per (hash, record) in a slice per hash, laid out only
// at encode. It is the reference keyIndexBuilder is held to byte for
// byte.
type refKixBuilder struct {
	offsets []int64
	dup     []byte
	posts   map[uint32][]kixPost
	keys    []uint32 // distinct hashes, insertion order
	bad     bool
}

type kixPost struct{ ord, mult uint32 }

func (b *refKixBuilder) add(off int64, hashes []uint32) {
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

func (b *refKixBuilder) encode() (section []byte, ok bool) {
	if b.bad || len(b.offsets) > math.MaxInt32 {
		return nil, false
	}
	sort.Slice(b.keys, func(i, j int) bool { return b.keys[i] < b.keys[j] })
	payload := binio.AppendUvarint(nil, uint64(len(b.offsets)))
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
			blob = binio.AppendUvarint(binio.AppendUvarint(blob, uint64(d)), uint64(p.mult))
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
	section = append(make([]byte, sectionHeaderBytes), payload...)
	kixFrame.putHeader(section)
	return section, true
}

// checkKixAgainstReference builds one index from data with both builders
// and demands the same section. Each byte of data is a hash drawn from a
// 64-value universe (so records repeat hashes, adjacent and not, and
// lists run long) or, when its top two bits are set, the end of a record
// (so two in a row make an empty record).
func checkKixAgainstReference(t *testing.T, data []byte) {
	kb, ref := newKeyIndexBuilder(), &refKixBuilder{posts: map[uint32][]kixPost{}}
	off := int64(segHeaderBytes)
	var hs []uint32
	for i, c := range data {
		if c < 0xc0 {
			hs = append(hs, uint32(c&0x3f)*2654435761+1)
			if i < len(data)-1 {
				continue
			}
		}
		kb.add(off, hs)
		ref.add(off, hs)
		off += int64(8 * (1 + len(hs)))
		hs = hs[:0]
	}
	got, okGot := kb.encode()
	want, okWant := ref.encode()
	if okGot != okWant || !bytes.Equal(got, want) {
		t.Fatalf("records % x: section (%d bytes, ok %v) differs from the reference's (%d bytes, ok %v)",
			data, len(got), okGot, len(want), okWant)
	}
	if cap(got) != len(got) {
		t.Fatalf("records % x: the %d-byte section was built in a %d-byte buffer", data, len(got), cap(got))
	}
}

// TestKeyIndexBuilderMatchesReference holds the builder to the reference
// on 300 random shapes: long and short records, empty ones, and hashes a
// record repeats next to each other or apart.
func TestKeyIndexBuilderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, rng.Intn(4000))
		ends := 1 + rng.Intn(64) // one byte in ends closes a record
		for j := range data {
			if rng.Intn(ends) == 0 {
				data[j] = 0xc0
			} else {
				data[j] = byte(rng.Intn(1 + rng.Intn(64)))
			}
		}
		checkKixAgainstReference(t, data)
	}
}

// FuzzKeyIndexBuilder searches for a record sequence on which the
// builder's section differs from the reference's.
func FuzzKeyIndexBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xc0, 0xc0, 0xc0})
	f.Add([]byte{1, 1, 1, 2, 0xc0, 2, 1, 2, 0xc0, 0xc0, 3})
	f.Add(bytes.Repeat([]byte{5, 0xc0}, 300))
	f.Fuzz(checkKixAgainstReference)
}

func TestKeyIndexEncodeDeterministic(t *testing.T) {
	a, _, _ := kixFixture(100, 32, 6, 5, 9)
	b, _, _ := kixFixture(100, 32, 6, 5, 9)
	sa, oka := a.encode()
	sb, okb := b.encode()
	if !oka || !okb {
		t.Fatal("encode failed")
	}
	if !bytes.Equal(sa, sb) {
		t.Fatal("identical inputs encoded to different sections")
	}
}

func TestKeyIndexEmptySegment(t *testing.T) {
	kb := newKeyIndexBuilder()
	section, ok := kb.encode()
	if !ok {
		t.Fatal("empty builder must still encode (train-only segments)")
	}
	ix, err := parseKeyIndex(section, true)
	if err != nil {
		t.Fatal(err)
	}
	if ix.records() != 0 {
		t.Fatalf("records = %d", ix.records())
	}
	sc := new(selectScratch)
	if ix.accumulate(42, 1, 0, sc); len(sc.touched) != 0 {
		t.Fatal("empty index accumulated postings")
	}
}

func TestKeyIndexMultiplicityCap(t *testing.T) {
	kb := newKeyIndexBuilder()
	kb.add(segHeaderBytes, []uint32{7, 7})
	kb.bad = true // what add() sets when a multiplicity exceeds maxKixMult
	if _, ok := kb.encode(); ok {
		t.Fatal("encode accepted a capped-out builder")
	}
}

// TestParseKeyIndexFailsClosed flips every byte of a valid section (and
// truncates it at every length) and demands parse reports an error:
// with the CRC verified, no single-byte corruption may survive.
func TestParseKeyIndexFailsClosed(t *testing.T) {
	kb, _, _ := kixFixture(40, 16, 4, 6, 3)
	section, ok := kb.encode()
	if !ok {
		t.Fatal("encode failed")
	}
	if _, err := parseKeyIndex(section, true); err != nil {
		t.Fatalf("pristine section rejected: %v", err)
	}
	for i := range section {
		mut := append([]byte(nil), section...)
		mut[i] ^= 0x5a
		if _, err := parseKeyIndex(mut, true); err == nil {
			t.Fatalf("byte flip at %d went undetected", i)
		}
	}
	for n := 0; n < len(section); n++ {
		if _, err := parseKeyIndex(section[:n], true); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

// FuzzSegmentIndex drives the structural validator (CRC off, so the
// fuzzer reaches past the checksum) with arbitrary bytes: parse must
// never panic, and any section it does accept must be safe to probe —
// accumulate stays in bounds for every hash the section mentions, and a
// list it reports bad was not read and leaves the index bad.
func FuzzSegmentIndex(f *testing.F) {
	kb, _, _ := kixFixture(20, 8, 3, 4, 5)
	section, _ := kb.encode()
	f.Add(section)
	f.Add(section[:len(section)/2])
	mut := append([]byte(nil), section...)
	mut[sectionHeaderBytes+2] ^= 0xff
	f.Add(mut)
	f.Add([]byte("MKIX"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := parseKeyIndex(data, false)
		if err != nil {
			return
		}
		sc := &selectScratch{acc: make([]int64, ix.records())}
		probe := func(hk uint32) {
			sc.touched = sc.touched[:0]
			if !ix.accumulate(hk, 2, 0, sc) && (len(sc.touched) != 0 || !ix.bad.Load()) {
				t.Fatalf("a bad list for %#x touched %d ordinals, bad=%v", hk, len(sc.touched), ix.bad.Load())
			}
			for _, ord := range sc.touched {
				if int(ord) >= len(sc.acc) {
					t.Fatalf("accumulate touched out-of-range ordinal %d", ord)
				}
				sc.acc[ord] = 0
			}
		}
		for s := 0; s < ix.slots; s++ {
			probe(binio.U32At(ix.keys, s*4))
		}
		probe(0)
		probe(0xffffffff)
		for r := 0; r < ix.records(); r++ {
			ix.isDup(r)
			if ord, ok := ix.ordinalOf(ix.recOffsets[r]); !ok || ord != r {
				t.Fatalf("ordinalOf lost record %d", r)
			}
		}
	})
}

// selSegment writes n candidate records shaped like the benchmark's
// sel20k catalog into an unsealed segment: 200 candidates a domain, each
// a 256-entry sketch of the domain's 300 keys, half numeric and half
// categorical with long shared labels. compressed makes the writer
// compress against the segment's dictionaries, as compaction does. It
// returns the writer and the number of postings its key index holds.
func selSegment(tb testing.TB, n int, compressed bool) (*segmentWriter, int) {
	tb.Helper()
	w, err := createSegment(tb.TempDir(), 1, segKindAppend)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { w.seg.f.Close() })
	rng := rand.New(rand.NewSource(1))
	sketches := make([][2]*core.Sketch, (n+selCatPerDomain-1)/selCatPerDomain)
	keys, values := map[uint32]struct{}{}, []string(nil)
	for d := range sketches {
		for kind := range sketches[d] {
			b, err := core.NewStreamBuilder(core.RoleCandidate, kind == 0, core.Options{Method: core.TUPSK, Size: 256})
			if err != nil {
				tb.Fatal(err)
			}
			for g := 0; g < selCatKeys; g++ {
				key := fmt.Sprintf("d%03d-k%d", d, g)
				if kind == 0 {
					b.AddNum(key, rng.NormFloat64())
				} else {
					b.AddStr(key, fmt.Sprintf("category/region-%03d/level-%02d", d, rng.Intn(12)))
				}
			}
			sk := b.Sketch()
			for _, h := range sk.KeyHashes {
				keys[h] = struct{}{}
			}
			values = append(values, sk.Strs...)
			sketches[d][kind] = sk
		}
	}
	if compressed {
		w.comp = trainSegCompressor(keys, values)
	}
	postings := 0
	for c := 0; c < n; c++ {
		d, j := c/selCatPerDomain, c%selCatPerDomain
		sk := sketches[d][j%2]
		if _, _, err := w.appendSketch(fmt.Sprintf("sel/d%03d/t%03d#x", d, j), sk, false); err != nil {
			tb.Fatal(err)
		}
		postings += sk.Len()
	}
	return w, postings
}

// TestKeyIndexBuildAllocs bounds what building a segment's key index
// allocates, as a multiple of the section it builds: the postings are
// held in their encoded form while they accumulate, and the read-back
// decodes key hashes only: 4× the section, raw or compressed. The
// map-of-posting-slices builder over full record decodes allocated 21.5×
// on the raw segment and 23.8× on the compressed one.
func TestKeyIndexBuildAllocs(t *testing.T) {
	for _, c := range []struct {
		name       string
		compressed bool
		multiple   uint64
	}{{"raw", false, 10}, {"compressed", true, 10}} {
		w, _ := selSegment(t, 2000, c.compressed)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		section := w.buildKeyIndex()
		runtime.ReadMemStats(&after)
		if section == nil {
			t.Fatalf("%s: the segment sealed without a key index", c.name)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: building a %d-byte section allocated %d bytes (%.1f×)", c.name, len(section), alloc, float64(alloc)/float64(len(section)))
		if alloc > c.multiple*uint64(len(section)) {
			t.Errorf("%s: building a %d-byte section allocated %d bytes, above %d× the section", c.name, len(section), alloc, c.multiple)
		}
	}
}

// BenchmarkSealKeyIndex times building the key index of a segment of
// 20 000 sel-shaped records, raw (a roll) and compressed (compaction
// output), and reports what it allocates per posting.
//
//	go test -run '^$' -bench SealKeyIndex -benchtime 3x ./internal/store
func BenchmarkSealKeyIndex(b *testing.B) {
	for _, compressed := range []bool{false, true} {
		name := map[bool]string{false: "raw", true: "compressed"}[compressed]
		b.Run(name, func(b *testing.B) {
			w, postings := selSegment(b, 20000, compressed)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if w.buildKeyIndex() == nil {
					b.Fatal("the segment sealed without a key index")
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*postings), "B/posting")
		})
	}
}
