package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"misketch/internal/binio"
	"misketch/internal/core"
)

func TestManifestV2RoundTrip(t *testing.T) {
	metas := []Meta{
		{
			Name: "b#y", Method: core.LV2SK, Role: core.RoleTrain,
			Seed: 7, Size: 256, Numeric: false, SourceRows: 99, Entries: 80,
			Bytes: 900, Segment: 3, Offset: 13016,
		},
		{
			Name: "empty", Method: core.CSK, Role: core.RoleCandidate,
			Seed: 1, Size: 64, Numeric: true, SourceRows: 0, Entries: 0,
			Bytes: 48, Segment: 5, Offset: 16,
		},
		{
			Name: "tables/a.csv#x@k", Method: core.TUPSK, Role: core.RoleCandidate,
			Seed: 42, Size: 1024, Numeric: true, SourceRows: 123456, Entries: 1024,
			Bytes: 13000, Segment: 3, Offset: 16,
		},
	}
	segs := []manifestSeg{
		{seq: 3, kind: segKindCompacted, covered: 13916},
		{seq: 5, kind: segKindAppend, covered: 64},
	}
	path := filepath.Join(t.TempDir(), ManifestFile)
	if err := writeManifestV2(path, 6, segs, metas); err != nil {
		t.Fatal(err)
	}
	man, err := loadManifestV2(path)
	if err != nil {
		t.Fatal(err)
	}
	if man.nextSeq != 6 {
		t.Errorf("nextSeq = %d, want 6", man.nextSeq)
	}
	if !reflect.DeepEqual(man.segs, segs) {
		t.Errorf("segment list mismatch:\n got %+v\nwant %+v", man.segs, segs)
	}
	if !reflect.DeepEqual(man.metas, metas) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", man.metas, metas)
	}
	if man.bytes != 900+48+13000 {
		t.Errorf("bytes = %d, want the entries' sum %d", man.bytes, 900+48+13000)
	}
}

// TestManifestV2IgnoresIndexedBit: bit 7 of a segment's kind byte, which
// older builds set on a sealed segment holding a key index, is never
// written and is masked off on read, so their MANIFESTs still load.
func TestManifestV2IgnoresIndexedBit(t *testing.T) {
	path := filepath.Join(t.TempDir(), ManifestFile)
	segs := []manifestSeg{{seq: 3, kind: segKindCompacted, covered: 96}}
	metas := []Meta{{Name: "a", Method: core.TUPSK, Entries: 4, Bytes: 80, Segment: 3, Offset: 16}}
	if err := writeManifestV2(path, 6, segs, metas); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// magic, version, nextSeq 6, one segment, seq 3: the kind byte is at 8.
	const kindAt = 8
	if raw[kindAt] != segKindCompacted {
		t.Fatalf("kind byte written as %#x, want %#x", raw[kindAt], segKindCompacted)
	}
	body := raw[:len(raw)-manifestCRCBytes]
	body[kindAt] |= manifestSegIndexed
	if err := os.WriteFile(path, binio.AppendU32(body, crc32.Checksum(body, crcTable)), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := loadManifestV2(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(man.segs, segs) || !reflect.DeepEqual(man.metas, metas) {
		t.Fatalf("older build's manifest loaded as %+v %+v, want %+v %+v", man.segs, man.metas, segs, metas)
	}
}

// otherVersionManifest is a well-formed manifest header whose version
// byte is not the one this build reads.
var otherVersionManifest = append([]byte(manifestMagic), 1, 64, 0, 0, 0, 0, 0, 0, 0, 0)

func TestLoadManifestV2RejectsCorruptInput(t *testing.T) {
	dir := t.TempDir()

	// A valid manifest with any byte flipped must fail the checksum.
	path := filepath.Join(dir, ManifestFile)
	metas := []Meta{{Name: "a", Method: core.TUPSK, Entries: 4, Bytes: 80, Segment: 1, Offset: 16}}
	if err := writeManifestV2(path, 2, []manifestSeg{{seq: 1, covered: 96}}, metas); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{6, len(raw) / 2, len(raw) - 1} {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		bad := filepath.Join(dir, "flipped")
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadManifestV2(bad); err == nil {
			t.Errorf("bit flip at %d: expected error", i)
		}
	}

	for name, content := range map[string][]byte{
		"bad-magic":   []byte("NOPE additional bytes"),
		"truncated":   []byte("MIS"),
		"bad-version": append([]byte("MISX"), 99, 0, 0, 0, 0, 0, 0, 0, 0),
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadManifestV2(p); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// A well-formed header with any other version byte is refused by
	// version, before its body or checksum is looked at.
	other := filepath.Join(dir, "version-1")
	if err := os.WriteFile(other, otherVersionManifest, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadManifestV2(other); !errors.Is(err, errManifestVersion) {
		t.Errorf("version byte 1: got %v, want errManifestVersion", err)
	}
	if _, err := loadManifestV2(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Errorf("missing manifest should surface as not-exist, got %v", err)
	}
}

// misordered returns metas with entries i and i+1 swapped, and with entry
// i+1 renamed to entry i's name: the two ways a table can fail its order.
func misordered(metas []Meta, i int) (swapped, repeated []Meta) {
	swapped, repeated = slices.Clone(metas), slices.Clone(metas)
	swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
	repeated[i+1].Name = repeated[i].Name
	return swapped, repeated
}

// TestManifestOrderCheck: a MANIFEST whose names are not strictly
// ascending — two swapped, or one repeated, its CRC intact — is refused
// like a corrupt one, and the open heals by replay, rewriting the
// MANIFEST byte for byte as the clean store had it.
func TestManifestOrderCheck(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 12; c++ {
		if err := st.Put(fmt.Sprintf("c%02d", c), windowSketch(t, core.RoleCandidate, 0, c, 20+c, int64(c))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestFile)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifestV2(path)
	if err != nil {
		t.Fatal(err)
	}
	swapped, repeated := misordered(man.metas, 5)
	for label, metas := range map[string][]Meta{"swapped": swapped, "repeated": repeated} {
		if err := writeManifestV2(path, man.nextSeq, man.segs, metas); err != nil {
			t.Fatal(err)
		}
		if _, err := loadManifestV2(path); err == nil {
			t.Fatalf("%s: a MANIFEST out of name order loaded", label)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if names, _ := st.List(); len(names) != 12 {
			t.Fatalf("%s: healed List = %v", label, names)
		}
		if healed, err := os.ReadFile(path); err != nil || !bytes.Equal(healed, clean) {
			t.Fatalf("%s: the healed MANIFEST differs from the clean store's (%v)", label, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzLoadManifest feeds loadManifestV2 — the shared in-place reader's
// second outside input, read from disk — arbitrary bytes, both as they
// come and with their trailing CRC recomputed so mutations reach the
// parser. It must error, never panic, and whatever it accepts must
// round-trip through writeManifestV2 to the same manifest.
func FuzzLoadManifest(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, ManifestFile)
	metas := []Meta{
		{Name: "a.csv#x@k", Method: core.TUPSK, Role: core.RoleCandidate, Seed: 42, Size: 1024, Numeric: true, SourceRows: 1234, Entries: 1024, Bytes: 13000, Segment: 3, Offset: 16},
		{Name: "b#y", Method: core.CSK, Role: core.RoleTrain, Seed: 7, Size: 64, SourceRows: 99, Entries: 80, Bytes: 900, Segment: 4, Offset: 13016},
	}
	if err := writeManifestV2(path, 5, []manifestSeg{{seq: 3, kind: segKindCompacted, covered: 13016}, {seq: 4, covered: 900}}, metas); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut <= len(valid); cut += 7 {
		f.Add(valid[:cut])
	}
	f.Add(valid)
	// Out of name order, CRC intact: refused.
	swapped, repeated := misordered(metas, 0)
	for _, bad := range [][]Meta{swapped, repeated} {
		if err := writeManifestV2(path, 5, []manifestSeg{{seq: 3, kind: segKindCompacted, covered: 13016}, {seq: 4, covered: 900}}, bad); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	// Multi-byte varints in every field (a name longer than 127 bytes
	// too), and three methods interleaved across adjacent entries: the
	// parse's longer varints and its method interning.
	long := strings.Repeat("n", 130)
	var wide []Meta
	for i, method := range []core.Method{core.TUPSK, core.CSK, core.LV2SK, core.CSK, core.TUPSK, core.LV2SK} {
		wide = append(wide, Meta{
			Name: fmt.Sprintf("%s%02d", long, i), Method: method, Role: core.RoleCandidate, Seed: 1 << 31,
			Size: 128 << i, Numeric: i%2 == 0, SourceRows: 1<<28 + i, Entries: 200 + i, Bytes: 1<<20 + int64(i),
			Segment: 1<<14 + uint64(i), Offset: 1<<28 + int64(i)<<10,
		})
	}
	if err := writeManifestV2(path, 1<<15, []manifestSeg{{seq: 1 << 14, kind: segKindCompacted, covered: 1 << 29}, {seq: 1<<14 + 5, covered: 1 << 29}}, wide); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	if man, err := loadManifestV2(path); err != nil || !reflect.DeepEqual(man.metas, wide) {
		f.Fatalf("wide manifest loads as %+v, %v", man, err)
	}
	// One entry with empty strings and a size varint that overflows: the
	// parse must not step back before the start. The body reaches the
	// parser with its CRC recomputed.
	overflow := append([]byte(manifestMagic), manifestVersion, 0, 0, 1, 0, 0, 1, 1, 2, 3, 4)
	overflow = append(overflow, bytes.Repeat([]byte{0xff}, 11)...)
	f.Add(append(overflow, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		inputs := [][]byte{data}
		if len(data) >= manifestCRCBytes {
			body := data[:len(data)-manifestCRCBytes]
			inputs = append(inputs, binio.AppendU32(bytes.Clone(body), crc32.Checksum(body, crcTable)))
		}
		for i, in := range inputs {
			p := filepath.Join(dir, fmt.Sprintf("in%d", i))
			if err := os.WriteFile(p, in, 0o644); err != nil {
				t.Fatal(err)
			}
			man, err := loadManifestV2(p)
			if err != nil {
				continue
			}
			out := filepath.Join(dir, fmt.Sprintf("out%d", i))
			if err := writeManifestV2(out, man.nextSeq, man.segs, man.metas); err != nil {
				t.Fatal(err)
			}
			back, err := loadManifestV2(out)
			if err != nil {
				t.Fatalf("re-encoded manifest does not load: %v", err)
			}
			if !reflect.DeepEqual(back, man) {
				t.Fatalf("round trip changed the manifest:\n%+v\n%+v", man, back)
			}
		}
	})
}
