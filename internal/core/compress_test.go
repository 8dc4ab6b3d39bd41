package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"misketch/internal/fsst"
)

// compressorFor builds a RecordCompressor whose dictionaries cover the
// given sketches, the way compaction does: the sorted distinct union of
// their key hashes plus a table trained on their categorical values.
func compressorFor(sks ...*Sketch) *RecordCompressor {
	seen := map[uint32]struct{}{}
	var values []string
	for _, sk := range sks {
		for _, h := range sk.KeyHashes {
			seen[h] = struct{}{}
		}
		values = append(values, sk.Strs...)
	}
	dict := make([]uint32, 0, len(seen))
	for h := range seen {
		dict = append(dict, h)
	}
	sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
	return NewRecordCompressor(dict, fsst.Train(values))
}

func TestCompressedRecordRoundTrip(t *testing.T) {
	for name, sk := range packedSketches(t) {
		c := compressorFor(sk)
		buf, compressed, err := AppendRecordCompressed(nil, "store/"+name, sk, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(buf)%8 != 0 {
			t.Errorf("%s: record length %d not 8-aligned", name, len(buf))
		}
		raw, err := AppendRecord(nil, "store/"+name, sk)
		if err != nil {
			t.Fatal(err)
		}
		if compressed && len(buf) >= len(raw) {
			t.Errorf("%s: compressed record (%d B) not smaller than raw (%d B)", name, len(buf), len(raw))
		}
		if got := RawRecordSize("store/"+name, sk); got != len(raw) {
			t.Errorf("%s: RawRecordSize = %d, raw encoding = %d", name, got, len(raw))
		}
		for _, borrow := range []bool{false, true} {
			rec, err := DecodeRecordWith(c.Decoder(), buf, 0, borrow)
			if err != nil {
				t.Fatalf("%s borrow=%v: %v", name, borrow, err)
			}
			if rec.Name != "store/"+name || rec.Compressed != compressed {
				t.Fatalf("%s: decoded frame %+v", name, rec.RecordInfo)
			}
			packedSketchesEqual(t, name, rec.Sketch, sk)
			// The lazily recomputed value order must match the raw
			// record's persisted one.
			if wantVO := sk.NumValOrder(); wantVO != nil {
				gotVO := rec.Sketch.NumValOrder()
				for i := range wantVO {
					if gotVO[i] != wantVO[i] {
						t.Fatalf("%s: value order diverges at %d", name, i)
					}
				}
			}
			if rec.Sketch.HasDuplicateKeyHashes() != sk.HasDuplicateKeyHashes() {
				t.Fatalf("%s: duplicate-key answer diverges", name)
			}
		}
	}
}

func TestCompressedRecordShrinksSharedKeyCorpus(t *testing.T) {
	// The deployment shape: many candidates over one shared key
	// universe. Numeric records shed the 4-byte hashes and the persisted
	// value order; categorical ones also shed the string bytes.
	var sks []*Sketch
	for c := 0; c < 16; c++ {
		n := 256
		num := &Sketch{Method: TUPSK, Role: RoleCandidate, Seed: 1, Size: n, Numeric: true, SourceRows: n}
		cat := &Sketch{Method: CSK, Role: RoleCandidate, Seed: 1, Size: n, SourceRows: n}
		for i := 0; i < n; i++ {
			h := uint32(i) * 2654435761
			num.KeyHashes = append(num.KeyHashes, h)
			num.Nums = append(num.Nums, math.Sqrt(float64(i*c+1)))
			cat.KeyHashes = append(cat.KeyHashes, h)
			cat.Strs = append(cat.Strs, fmt.Sprintf("cat%04d", (i*7+c)%100))
		}
		sks = append(sks, num, cat)
	}
	c := compressorFor(sks...)
	var rawTotal, compTotal int
	for i, sk := range sks {
		name := fmt.Sprintf("bench/t%04d", i)
		buf, compressed, err := AppendRecordCompressed(nil, name, sk, c)
		if err != nil {
			t.Fatal(err)
		}
		if !compressed {
			t.Fatalf("sketch %d fell back to raw", i)
		}
		rawTotal += RawRecordSize(name, sk)
		compTotal += len(buf)
		rec, err := DecodeRecordWith(c.Decoder(), buf, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		packedSketchesEqual(t, name, rec.Sketch, sk)
	}
	if compTotal*2 > rawTotal {
		t.Fatalf("corpus compressed to %d of %d raw bytes (want >= 2x)", compTotal, rawTotal)
	}
}

func TestCompressedRecordFallsBackWhenNotSmaller(t *testing.T) {
	// A sketch whose key hashes are missing from the dictionary must be
	// written raw, and still decode through the decoder-aware path.
	sk := &Sketch{Method: TUPSK, Role: RoleCandidate, Seed: 9, Size: 8, Numeric: true,
		KeyHashes: []uint32{1, 2, 3}, Nums: []float64{1, 2, 3}, SourceRows: 3}
	c := NewRecordCompressor([]uint32{500}, nil)
	buf, compressed, err := AppendRecordCompressed(nil, "x", sk, c)
	if err != nil {
		t.Fatal(err)
	}
	if compressed {
		t.Fatal("sketch with out-of-dictionary hashes claimed compression")
	}
	rec, err := DecodeRecordWith(c.Decoder(), buf, 0, false)
	if err != nil || rec.Compressed {
		t.Fatalf("raw fallback decode: %+v, %v", rec.RecordInfo, err)
	}
	packedSketchesEqual(t, "fallback", rec.Sketch, sk)

	// An empty sketch compresses to the same size as raw: keep raw.
	empty := &Sketch{Method: CSK, Role: RoleCandidate, Seed: 1, Size: 8, Numeric: true,
		KeyHashes: []uint32{}, Nums: []float64{}}
	if _, compressed, err = AppendRecordCompressed(nil, "e", empty, compressorFor(empty)); err != nil || compressed {
		t.Fatalf("empty sketch: compressed=%v err=%v", compressed, err)
	}
}

func TestCompressedRecordFailsClosed(t *testing.T) {
	sk := packedSketches(t)["str-role1"]
	c := compressorFor(sk)
	buf, compressed, err := AppendRecordCompressed(nil, "store/x", sk, c)
	if err != nil || !compressed {
		t.Fatalf("setup: compressed=%v err=%v", compressed, err)
	}

	// No decoder: hard error, not a garbage sketch.
	if _, err := DecodeRecord(buf, 0, false); err == nil {
		t.Fatal("compressed record decoded without a decoder")
	}
	if _, err := DecodeRecordWith(nil, buf, 0, false); err == nil {
		t.Fatal("compressed record decoded with a nil decoder")
	}

	// Any flipped payload bit fails the decode-time CRC.
	for _, off := range []int{recHeaderBytes, len(buf) - 9} {
		mut := append([]byte(nil), buf...)
		mut[off] ^= 0x40
		if _, err := DecodeRecordWith(c.Decoder(), mut, 0, false); err == nil {
			t.Fatalf("flipped byte at %d decoded silently", off)
		}
	}

	// A decoder with the wrong dictionaries must error (CRC passes, the
	// refs point beyond the dictionary).
	if _, err := DecodeRecordWith(NewRecordDecoder(nil, nil), buf, 0, false); err == nil {
		t.Fatal("decode against an empty dictionary succeeded")
	}
}

// catRecords encodes nRec categorical sketches over one key universe
// whose value sets (under root) overlap record to record but whose rows
// differ, and returns them with the records and the shared decoder.
func catRecords(t *testing.T, nRec int, root string) ([]*Sketch, [][]byte, *RecordDecoder) {
	t.Helper()
	sks := make([]*Sketch, nRec)
	for r := range sks {
		sk := &Sketch{Method: CSK, Role: RoleCandidate, Seed: 1, Size: 256, SourceRows: 256}
		for i := 0; i < 200+r; i++ {
			sk.KeyHashes = append(sk.KeyHashes, uint32(i)*2654435761)
			sk.Strs = append(sk.Strs, fmt.Sprintf("%s/region-%03d/level-%02d", root, r%3, (i*(r+3))%(7+r)))
		}
		sks[r] = sk
	}
	c := compressorFor(sks...)
	bufs := make([][]byte, nRec)
	for r, sk := range sks {
		buf, compressed, err := AppendRecordCompressed(nil, fmt.Sprintf("sel/t%03d", r), sk, c)
		if err != nil || !compressed {
			t.Fatalf("record %d: compressed=%v err=%v", r, compressed, err)
		}
		bufs[r] = buf
	}
	return sks, bufs, c.Decoder()
}

// TestCompressedDecodeScratchDoesNotEscape: the interning map, the
// length array and the FSST buffer of a categorical decode are pooled,
// so the next decode on the goroutine overwrites them. Every value of
// record A must read the same after records B, C, … were decoded — a
// string aliasing the pooled buffer, or a map entry surviving into the
// next record (the same blob decodes to the same value only under the
// same table, but a stale entry under a reused key would be returned
// unseen), fails here — and a failed decode must hand the scratch back
// clean.
func TestCompressedDecodeScratchDoesNotEscape(t *testing.T) {
	sks, bufs, dec := catRecords(t, 6, "category")
	decoded := make([]*Sketch, len(bufs))
	for r, buf := range bufs {
		rec, err := DecodeRecordWith(dec, buf, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		decoded[r] = rec.Sketch
		// A decode that fails after interning values (wrong table: the
		// CRC holds, the codes do not) between two that succeed.
		if _, err := DecodeRecordWith(NewRecordDecoder(dec.keyDict, nil), buf, 0, false); err == nil {
			t.Fatal("decode against an empty symbol table succeeded")
		}
	}
	for r, sk := range decoded {
		packedSketchesEqual(t, fmt.Sprintf("record %d after %d later decodes", r, len(bufs)-1-r), sk, sks[r])
	}
	// Under another table the same blobs mean other values: nothing the
	// first decoder interned may answer for the second's.
	others, otherBufs, otherDec := catRecords(t, 6, "kind")
	for r, buf := range otherBufs {
		if _, err := DecodeRecordWith(dec, bufs[r], 0, false); err != nil {
			t.Fatal(err)
		}
		rec, err := DecodeRecordWith(otherDec, buf, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		packedSketchesEqual(t, fmt.Sprintf("other table, record %d", r), rec.Sketch, others[r])
	}
}

// TestCompressedDecodeConcurrent decodes the same records from several
// goroutines at once (run under -race in CI): pooled scratch is per
// decode, never shared.
func TestCompressedDecodeConcurrent(t *testing.T) {
	sks, bufs, dec := catRecords(t, 8, "category")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				r := (g + round) % len(bufs)
				rec, err := DecodeRecordWith(dec, bufs[r], 0, false)
				if err != nil {
					t.Error(err)
					return
				}
				for i, v := range rec.Sketch.Strs {
					if v != sks[r].Strs[i] {
						t.Errorf("goroutine %d record %d: value %d is %q, want %q", g, r, i, v, sks[r].Strs[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func FuzzDecodeCompressedRecord(f *testing.F) {
	sk := &Sketch{Method: CSK, Role: RoleCandidate, Seed: 3, Size: 8,
		KeyHashes: []uint32{10, 20, 20, 30}, Strs: []string{"aa", "ab", "ab", ""}, SourceRows: 4}
	num := &Sketch{Method: TUPSK, Role: RoleCandidate, Seed: 3, Size: 8, Numeric: true,
		KeyHashes: []uint32{10, 20, 30, 40}, Nums: []float64{4, 3, 2, 1}, SourceRows: 4}
	c := compressorFor(sk, num)
	for _, s := range []*Sketch{sk, num} {
		buf, _, err := AppendRecordCompressed(nil, "seed", s, c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	dec := c.Decoder()
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; errors are the expected outcome for mutated
		// input (the decode-time CRC rejects virtually everything).
		rec, err := DecodeRecordWith(dec, data, 0, false)
		if err == nil && rec.Kind == RecordSketch && rec.Sketch == nil {
			t.Fatal("nil sketch without error")
		}
		// What the full decode accepts, the key-hash read accepts too,
		// with the same hashes.
		if err == nil && rec.Sketch != nil {
			if hs, err := AppendKeyHashes(dec, nil, data, 0); err != nil || !slices.Equal(hs, rec.Sketch.KeyHashes) {
				t.Fatalf("AppendKeyHashes = %v, %v; the decode read %v", hs, err, rec.Sketch.KeyHashes)
			}
		}
	})
}

// TestAppendKeyHashesMatchesDecode holds the key-hash read seal uses to
// the full decode, raw and compressed, numeric and categorical, and to
// the same refusals: a compressed record needs its decoder, a flipped
// bit fails its CRC, and a ref beyond the dictionary is an error.
func TestAppendKeyHashesMatchesDecode(t *testing.T) {
	for name, sk := range packedSketches(t) {
		c := compressorFor(sk)
		raw, err := AppendRecord(nil, name, sk)
		if err != nil {
			t.Fatal(err)
		}
		comp, compressed, err := AppendRecordCompressed(nil, name, sk, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, buf := range [][]byte{raw, comp} {
			rec, err := DecodeRecordWith(c.Decoder(), buf, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			prefix := []uint32{1, 2}
			got, err := AppendKeyHashes(c.Decoder(), prefix, buf, 0)
			if err != nil || !slices.Equal(got, append(prefix, rec.Sketch.KeyHashes...)) {
				t.Errorf("%s compressed=%v: AppendKeyHashes = %v, %v; want %v after %v", name, rec.Compressed, got, err, rec.Sketch.KeyHashes, prefix)
			}
		}
		if !compressed {
			continue
		}
		if _, err := AppendKeyHashes(nil, nil, comp, 0); err == nil {
			t.Errorf("%s: a compressed record read without a decoder", name)
		}
		if _, err := AppendKeyHashes(NewRecordDecoder(nil, nil), nil, comp, 0); err == nil {
			t.Errorf("%s: key refs read against an empty dictionary", name)
		}
		mut := append([]byte(nil), comp...)
		mut[len(mut)-9] ^= 0x40
		if _, err := AppendKeyHashes(c.Decoder(), nil, mut, 0); err == nil {
			t.Errorf("%s: a flipped byte passed the CRC", name)
		}
	}
	tomb, err := AppendTombstone(nil, "gone")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendKeyHashes(nil, nil, tomb, 0); err == nil {
		t.Error("a tombstone read as a sketch")
	}
}

// TestRecordBorrowedOnlyWhenAliased holds Record.Borrowed to what the
// sketch really aliases, for raw and compressed records × numeric and
// categorical × borrow: after the record's bytes are overwritten, a
// decode that says it owns its memory reads the values it was given, and
// one that says it borrows reads the overwrite.
func TestRecordBorrowedOnlyWhenAliased(t *testing.T) {
	sketches := packedSketches(t)
	for _, name := range []string{"num-role1", "str-role1"} {
		sk := sketches[name]
		c := compressorFor(sk)
		for _, compress := range []bool{false, true} {
			for _, borrow := range []bool{false, true} {
				buf, err := AppendRecord(nil, name, sk)
				if compress {
					var compressed bool
					buf, compressed, err = AppendRecordCompressed(nil, name, sk, c)
					if !compressed {
						t.Fatalf("%s: fixture did not compress", name)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				rec, err := DecodeRecordWith(c.Decoder(), buf, 0, borrow)
				if err != nil {
					t.Fatal(err)
				}
				want := borrow && nativeLittleEndian && (!compress || sk.Numeric)
				label := fmt.Sprintf("%s compressed=%v borrow=%v", name, compress, borrow)
				if rec.Borrowed != want {
					t.Errorf("%s: Borrowed = %v, want %v", label, rec.Borrowed, want)
				}
				for i := range buf {
					buf[i] = 0xFF
				}
				intact := sketchesEqual(rec.Sketch, sk)
				if intact == rec.Borrowed {
					t.Errorf("%s: Borrowed = %v, but the sketch reads the overwritten buffer: %v", label, rec.Borrowed, !intact)
				}
			}
		}
	}
}

// TestCompressedNumericDecodeAllocs: a borrowed compressed numeric decode
// allocates the record's name, the Sketch and its key hashes, and nothing
// else: its CRC check reuses the frame the decode already holds.
func TestCompressedNumericDecodeAllocs(t *testing.T) {
	if !nativeLittleEndian {
		t.Skip("the value array is borrowed only on little-endian hosts")
	}
	sk := packedSketches(t)["num-role1"]
	c := compressorFor(sk)
	buf, compressed, err := AppendRecordCompressed(nil, "store/x", sk, c)
	if err != nil || !compressed {
		t.Fatalf("fixture did not compress: %v", err)
	}
	dec := c.Decoder()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeRecordWith(dec, buf, 0, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Fatalf("a borrowed compressed numeric decode allocates %v times, want 3", allocs)
	}
}
