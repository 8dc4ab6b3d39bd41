package core

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"misketch/internal/binio"
	"misketch/internal/mi"
	"misketch/internal/table"
)

func roundTrip(t *testing.T, s *Sketch) *Sketch {
	t.Helper()
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadSketch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func sketchesEqual(a, b *Sketch) bool {
	if a.Method != b.Method || a.Role != b.Role || a.Seed != b.Seed ||
		a.Size != b.Size || a.Numeric != b.Numeric || a.SourceRows != b.SourceRows ||
		a.Len() != b.Len() {
		return false
	}
	for i := range a.KeyHashes {
		if a.KeyHashes[i] != b.KeyHashes[i] {
			return false
		}
		if a.Numeric {
			av, bv := a.Nums[i], b.Nums[i]
			if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
				return false
			}
		} else if a.Strs[i] != b.Strs[i] {
			return false
		}
	}
	return true
}

func TestSketchRoundTripNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train, _ := uniqueKeyTables(500, rng)
	for _, m := range Methods {
		s := buildOrDie(t, train, "k", "y", RoleTrain, Options{Method: m, Size: 64, RNGSeed: 2})
		back := roundTrip(t, s)
		if !sketchesEqual(s, back) {
			t.Errorf("%s: round trip changed the sketch", m)
		}
	}
}

func TestSketchRoundTripCategorical(t *testing.T) {
	cat := table.New(
		table.NewStringColumn("k", []string{"a", "b", "c"}),
		table.NewStringColumn("y", []string{"röd", "blå", "with,comma\nand newline"}),
	)
	s := buildOrDie(t, cat, "k", "y", RoleTrain, Options{Method: TUPSK, Size: 8})
	back := roundTrip(t, s)
	if !sketchesEqual(s, back) {
		t.Error("categorical round trip changed the sketch")
	}
}

func TestSketchRoundTripSpecialFloats(t *testing.T) {
	s := &Sketch{
		Method: TUPSK, Role: RoleTrain, Seed: 7, Size: 4, Numeric: true,
		SourceRows: 3,
		KeyHashes:  []uint32{1, 2, 3},
		Nums:       []float64{math.MaxFloat64, -0.0, 1e-308},
	}
	back := roundTrip(t, s)
	if !sketchesEqual(s, back) {
		t.Error("special floats mangled")
	}
}

// TestReadSketchRejectsInfinities: no build stores ±Inf (an infinite
// value is NULL), so crafted bytes carrying one are refused, and so is
// the sketch itself by CheckFinite.
func TestReadSketchRejectsInfinities(t *testing.T) {
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		s := &Sketch{
			Method: TUPSK, Role: RoleCandidate, Seed: 7, Size: 4, Numeric: true,
			SourceRows: 2, KeyHashes: []uint32{1, 2}, Nums: []float64{1, inf},
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSketch(&buf); err == nil {
			t.Errorf("a sketch holding %v was accepted", inf)
		}
		if CheckFinite(s) == nil {
			t.Errorf("CheckFinite accepted %v", inf)
		}
	}
}

// TestReadSketchRejectsTrailingBytes: ReadSketch reads its input to the
// end, so one input is one sketch and its bytes are that sketch's.
func TestReadSketchRejectsTrailingBytes(t *testing.T) {
	s := &Sketch{Method: CSK, Role: RoleCandidate, Seed: 1, Size: 2, KeyHashes: []uint32{9}, Strs: []string{"v"}}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tail := range [][]byte{{0}, buf.Bytes()} {
		if _, err := ReadSketch(bytes.NewReader(append(bytes.Clone(buf.Bytes()), tail...))); err == nil {
			t.Errorf("%d trailing bytes were accepted", len(tail))
		}
	}
}

// hugeCountHeader is a 23-byte MISK header claiming 2^28-1 numeric
// entries and carrying none.
var hugeCountHeader = []byte("MISK\x01\x05TUPSK\x00\x01\x00\x00\x00\x04\x01\x00\xff\xff\xff\x7f")

// TestReadSketchHugeCountAllocatesLittle: a header whose entry count the
// bytes after it cannot hold is refused before anything is sized by it.
func TestReadSketchHugeCountAllocatesLittle(t *testing.T) {
	if len(hugeCountHeader) != 23 {
		t.Fatalf("header is %d bytes", len(hugeCountHeader))
	}
	if h, err := readSketchHeader(binio.NewReader(hugeCountHeader)); err != nil || h.Entries != 1<<28-1 {
		t.Fatalf("header = %+v, %v; want 2^28-1 entries", h, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSketch(bytes.NewReader(hugeCountHeader))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header claiming 2^28-1 entries in 0 bytes was accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("rejecting it allocated %d bytes", n)
	}
}

func TestSketchRoundTripEmpty(t *testing.T) {
	s := &Sketch{Method: CSK, Role: RoleCandidate, Seed: 1, Size: 16, Numeric: false}
	back := roundTrip(t, s)
	if !sketchesEqual(s, back) {
		t.Error("empty sketch round trip failed")
	}
}

func TestReadSketchRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad magic":   "NOPE\x01",
		"short":       "MIS",
		"bad version": "MISK\x63",
	}
	for name, in := range cases {
		if _, err := ReadSketch(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadSketchRejectsBadMethod(t *testing.T) {
	s := &Sketch{Method: TUPSK, Seed: 1, Size: 4, Numeric: true}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the method string ("TUPSK" starts after magic+version+len).
	b := buf.Bytes()
	b[6] = 'X'
	if _, err := ReadSketch(bytes.NewReader(b)); err == nil {
		t.Error("corrupted method should be rejected")
	}
}

func TestReadSketchTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train, _ := uniqueKeyTables(100, rng)
	s := buildOrDie(t, train, "k", "y", RoleTrain, Options{Method: TUPSK, Size: 32})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := ReadSketch(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d bytes should error", cut)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		s := &Sketch{
			Method: Methods[rng.Intn(len(Methods))], Role: Role(rng.Intn(2)),
			Seed: rng.Uint32(), Size: 1 + rng.Intn(512),
			Numeric: rng.Intn(2) == 0, SourceRows: rng.Intn(10000),
		}
		for i := 0; i < n; i++ {
			s.KeyHashes = append(s.KeyHashes, rng.Uint32())
			if s.Numeric {
				s.Nums = append(s.Nums, rng.NormFloat64())
			} else {
				s.Strs = append(s.Strs, strings.Repeat("v", rng.Intn(20)))
			}
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			return false
		}
		back, err := ReadSketch(&buf)
		if err != nil {
			return false
		}
		return sketchesEqual(s, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReadSketchHeader(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train, _ := uniqueKeyTables(500, rng)
	s := buildOrDie(t, train, "k", "y", RoleTrain, Options{Method: TUPSK, Size: 64, Seed: 9})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	h, err := readSketchHeader(binio.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if h.Method != s.Method || h.Role != s.Role || h.Seed != s.Seed ||
		h.Size != s.Size || h.Numeric != s.Numeric ||
		h.SourceRows != s.SourceRows || h.Entries != s.Len() {
		t.Errorf("header = %+v, sketch = %+v (Len %d)", h, s, s.Len())
	}

	// Header-only decode must not depend on the body: a sketch truncated
	// right after its entry count still yields the full header. The body
	// here is entirely u32 key hashes + f64 values, so cutting the last
	// entry's bytes leaves the header intact.
	cut := len(full) - 12*s.Len() // strip all key hashes and values
	if cut <= 0 {
		t.Fatal("test sketch unexpectedly small")
	}
	h2, err := readSketchHeader(binio.NewReader(full[:cut]))
	if err != nil {
		t.Fatalf("header decode should survive a missing body: %v", err)
	}
	if h2.Entries != s.Len() {
		t.Errorf("truncated header entries = %d, want %d", h2.Entries, s.Len())
	}

	// And the garbage cases reject exactly like ReadSketch.
	for name, in := range map[string]string{
		"empty": "", "bad magic": "NOPE\x01", "bad version": "MISK\x63",
	} {
		if _, err := readSketchHeader(binio.NewReader([]byte(in))); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSerializedSketchStillEstimates(t *testing.T) {
	// End to end: persist both sketches, reload, estimate.
	rng := rand.New(rand.NewSource(4))
	train, cand := uniqueKeyTables(3000, rng)
	opt := Options{Method: TUPSK, Size: 256}
	st := buildOrDie(t, train, "k", "y", RoleTrain, opt)
	sc := buildOrDie(t, cand, "k", "x", RoleCandidate, opt)
	direct, err := EstimateMI(st, sc, mi.DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if _, err := st.WriteTo(&b1); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	rst, err := ReadSketch(&b1)
	if err != nil {
		t.Fatal(err)
	}
	rsc, err := ReadSketch(&b2)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := EstimateMI(rst, rsc, mi.DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	if direct.MI != loaded.MI || direct.N != loaded.N {
		t.Errorf("estimates diverge after round trip: %v vs %v", direct, loaded)
	}
}
