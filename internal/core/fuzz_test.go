package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"misketch/internal/binio"
)

// FuzzReadSketchHeader hardens the header decode ReadSketch sizes its
// body by (services run it over untrusted uploads) against truncated and
// corrupt input: it must never panic, and it must agree with the full
// decoder — any input ReadSketch accepts must yield a header whose fields
// match the decoded sketch, and any input whose header is rejected must
// be rejected by ReadSketch too.
func FuzzReadSketchHeader(f *testing.F) {
	valid := &Sketch{
		Method: TUPSK, Role: RoleCandidate, Seed: 3, Size: 8, Numeric: true,
		SourceRows: 3, KeyHashes: []uint32{1, 2, 3}, Nums: []float64{0.5, -1, 2},
	}
	var buf bytes.Buffer
	if _, err := valid.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	for _, cut := range []int{0, 1, 4, 5, 9, len(full) / 2, len(full) - 1} {
		if cut < len(full) {
			f.Add(full[:cut]) // truncations at every layout boundary region
		}
	}
	f.Add([]byte("MISY\x01"))
	f.Add([]byte("MISK\xff"))
	f.Add([]byte("MISK\x01\x05TUPSK\x00\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, herr := readSketchHeader(binio.NewReader(data))
		s, serr := ReadSketch(bytes.NewReader(data))
		if herr != nil {
			if serr == nil {
				t.Fatalf("header rejected (%v) but full decode accepted", herr)
			}
			return
		}
		if h.Entries < 0 || h.Size < 0 || h.SourceRows < 0 {
			t.Fatalf("accepted header with negative fields: %+v", h)
		}
		if serr != nil {
			return // truncated body behind a valid header is fine
		}
		if h.Method != s.Method || h.Role != s.Role || h.Seed != s.Seed ||
			h.Size != s.Size || h.Numeric != s.Numeric ||
			h.SourceRows != s.SourceRows || h.Entries != s.Len() {
			t.Fatalf("header %+v disagrees with sketch %+v", h, s)
		}
	})
}

// FuzzReadSketch hardens the sketch decoder against corrupt and
// adversarial input: it must never panic or allocate absurdly, and any
// sketch it accepts must round-trip to identical bytes.
func FuzzReadSketch(f *testing.F) {
	// Seed with a valid sketch and a few mutations.
	valid := &Sketch{
		Method: TUPSK, Role: RoleTrain, Seed: 7, Size: 4, Numeric: true,
		SourceRows: 2, KeyHashes: []uint32{1, 2}, Nums: []float64{1.5, -3},
	}
	var buf bytes.Buffer
	if _, err := valid.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	catSketch := &Sketch{
		Method: CSK, Role: RoleCandidate, Seed: 1, Size: 2, Numeric: false,
		SourceRows: 1, KeyHashes: []uint32{9}, Strs: []string{"label"},
	}
	buf.Reset()
	if _, err := catSketch.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("MISK"))
	f.Add([]byte("MISK\x01\x05TUPSK"))
	f.Add([]byte{})
	f.Add(hugeCountHeader)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSketch(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted sketches must be well formed...
		want := len(s.KeyHashes)
		if s.Numeric && len(s.Nums) != want {
			t.Fatalf("numeric sketch with %d hashes, %d values", want, len(s.Nums))
		}
		if !s.Numeric && len(s.Strs) != want {
			t.Fatalf("categorical sketch with %d hashes, %d values", want, len(s.Strs))
		}
		// ...and re-encode deterministically.
		var out1, out2 bytes.Buffer
		if _, err := s.WriteTo(&out1); err != nil {
			t.Fatalf("re-encoding accepted sketch: %v", err)
		}
		if _, err := s.WriteTo(&out2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
			t.Fatal("encoding is nondeterministic")
		}
	})
}

// FuzzDecodeRecord hardens the packed-record decoder — the path every
// ranking query runs over mmap'd segment bytes — against corrupt and
// adversarial input: neither decode mode may panic or read out of
// bounds, VerifyRecord must reject anything DecodeRecord cannot parse,
// and the borrowed and owning decodes of an accepted record must agree
// field for field.
func FuzzDecodeRecord(f *testing.F) {
	num := &Sketch{
		Method: TUPSK, Role: RoleCandidate, Seed: 3, Size: 8, Numeric: true,
		SourceRows: 3, KeyHashes: []uint32{1, 2, 3}, Nums: []float64{0.5, -1, 2},
	}
	cat := &Sketch{
		Method: CSK, Role: RoleCandidate, Seed: 1, Size: 2,
		SourceRows: 2, KeyHashes: []uint32{9, 10}, Strs: []string{"label", ""},
	}
	for _, sk := range []*Sketch{num, cat} {
		rec, err := AppendRecord(nil, "seed/name", sk)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
		for _, cut := range []int{8, 16, 40, len(rec) - 8} {
			if cut < len(rec) {
				f.Add(rec[:cut:cut])
			}
		}
	}
	tomb, err := AppendTombstone(nil, "gone")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tomb)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if n, err := VerifyRecord(data, 0); err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("VerifyRecord accepted length %d of %d", n, len(data))
			}
		}
		view, verr := DecodeRecord(data, 0, true)
		own, oerr := DecodeRecord(data, 0, false)
		if (verr == nil) != (oerr == nil) {
			t.Fatalf("borrow/copy disagree: %v vs %v", verr, oerr)
		}
		if verr != nil {
			return
		}
		if view.Kind != own.Kind || view.Name != own.Name || view.Len != own.Len {
			t.Fatalf("record info differs: %+v vs %+v", view.RecordInfo, own.RecordInfo)
		}
		if view.Sketch == nil {
			return
		}
		a, b := view.Sketch, own.Sketch
		if a.Len() != b.Len() || a.Seed != b.Seed || a.Numeric != b.Numeric {
			t.Fatal("borrowed and owning sketches disagree")
		}
		for i := range a.KeyHashes {
			if a.KeyHashes[i] != b.KeyHashes[i] {
				t.Fatal("key hashes disagree")
			}
		}
		if hs, err := AppendKeyHashes(nil, nil, data, 0); err != nil || !slices.Equal(hs, a.KeyHashes) {
			t.Fatalf("AppendKeyHashes = %v, %v; the decode read %v", hs, err, a.KeyHashes)
		}
		for i := range a.Nums {
			if math.Float64bits(a.Nums[i]) != math.Float64bits(b.Nums[i]) {
				t.Fatal("numeric values disagree")
			}
		}
		for i := range a.Strs {
			if a.Strs[i] != b.Strs[i] {
				t.Fatal("string values disagree")
			}
		}
	})
}
