package store

// Unit and fuzz coverage for the key index section itself: round-trip
// fidelity against a brute-force model, encoding determinism, and the
// fail-closed parse contract (corrupt or truncated sections must error,
// never panic, never misattribute a posting).

import (
	"bytes"
	"math/rand"
	"testing"

	"misketch/internal/binio"
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
