package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"misketch/internal/binio"
	"misketch/internal/core"
	"misketch/internal/mi"
	"misketch/internal/synth"
)

// testdata/oldlayout is a store written by an older build, whose sealed
// segments still carry a per-record index section between the records
// and the key index. It was generated at commit 7d20b1f, from the
// repository root, with
//
//	go run ./cmd/datagen -kind cohort -tables 4 -out D
//	misketch store ingest -store D/shard0 -key key DIR_WITH_alpha.csv
//	misketch store compact -store D/shard0 -compress
//	misketch store ingest -store D/shard0 -key key DIR_WITH_beta.csv
//
// and D/shard0's MANIFEST and segments/ copied here: segment 3 is the
// compressed compaction output (four cohort candidates and alpha.csv's
// two columns), segment 4 a raw sealed append segment (beta.csv's).
const oldLayoutDir = "testdata/oldlayout"

// oldLayoutSketches pins, per stored name, the SHA-256 of the sketch's
// WriteTo bytes as the generating build served it.
var oldLayoutSketches = map[string]string{
	"alpha.csv#grade@key": "f4002dd2b94103dcd2d9c50719ebdd092232e745f4237b64db790cbc2a8d9e8b",
	"alpha.csv#score@key": "85be2aaed9ea657a4b94d3ae4711411671157598f3dc1edae956fb883e2d1107",
	"bench/t0000#x":       "6d1e1086a7cc9d5aa69dc6d3894d8e89fd85ca18e77761a3e260e599b3d69610",
	"bench/t0001#x":       "66a3595d7459ed078e5482bbaa5ea8c7be68eb3989fb83b8791fe8d1236a0195",
	"bench/t0002#x":       "5b2fbde4e0139399172577821bcad1a74a2cfa070665cca75a015222a514bc00",
	"bench/t0003#x":       "84ebcb53158d1154a52329aac10b45d195d75edd34df05129bf848b0f7991444",
	"beta.csv#load@key":   "ea03118d3b895ca838994c2fd1ea1203d3938d7e2ba43fb009762714d8634ade",
	"beta.csv#zone@key":   "3236ae26bb8b94129f0297c91eda168a2a600a7af991827d9587cf352f531638",
}

// oldLayoutRanking is the cohort train's ranking over the old-layout
// store as the generating build answered it: name, MI bits, join size.
const oldLayoutRanking = `bench/t0000#x 400729b0e49f72a7 189
alpha.csv#score@key 400489829dd4405a 101
bench/t0001#x 3ffc75b3dd311583 189
beta.csv#zone@key 3fe96f1555b49a38 73
alpha.csv#grade@key 3fdbc84a41bf7d50 101
bench/t0002#x 3fd2ced4bfae433a 189
beta.csv#load@key 3fd1bcf7a2443b84 73
bench/t0003#x 3fcec00c108c2e00 189
`

// copyOldLayout copies the committed old-layout store into a fresh
// directory, so opening, compacting and closing it leave testdata alone.
func copyOldLayout(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, rel := range []string{ManifestFile, "segments/000000000003.seg", "segments/000000000004.seg"} {
		raw, err := os.ReadFile(filepath.Join(oldLayoutDir, rel))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// checkOldLayoutAnswers lists, gets, verifies and ranks st and compares
// every answer with what the generating build gave.
func checkOldLayoutAnswers(t *testing.T, st *Store, when string) {
	t.Helper()
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(oldLayoutSketches) {
		t.Errorf("%s: List = %v, want %d names", when, names, len(oldLayoutSketches))
	}
	for _, name := range names {
		sk, err := st.Get(name)
		if err != nil {
			t.Fatalf("%s: Get(%q): %v", when, name, err)
		}
		var buf bytes.Buffer
		if _, err := sk.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got, want := hex.EncodeToString(sum[:]), oldLayoutSketches[name]; got != want {
			t.Errorf("%s: %q: sketch digest %s, want %s", when, name, got, want)
		}
	}
	if err := st.Verify(); err != nil {
		t.Errorf("%s: Verify: %v", when, err)
	}
	train, _ := synth.PlantedCohort(0)
	ranked, _, err := st.RankQuery(context.Background(), train, RankOptions{MinJoinSize: 20, K: mi.DefaultK})
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, r := range ranked {
		fmt.Fprintf(&got, "%s %016x %d\n", r.Name, math.Float64bits(r.MI), r.JoinSize)
	}
	if got.String() != oldLayoutRanking {
		t.Errorf("%s: ranking\n%s\nwant\n%s", when, got.String(), oldLayoutRanking)
	}
}

// TestOldLayoutStore opens a store an older build wrote — its sealed
// segments carry the per-record index section no build reads — and
// lists, gets, verifies, ranks and compacts it with the answers that
// build gave, before and after compaction and across a reopen.
func TestOldLayoutStore(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			dir := copyOldLayout(t)
			st, err := OpenWithOptions(dir, OpenOptions{Compression: compress})
			if err != nil {
				t.Fatal(err)
			}
			segs := st.Segments()
			if len(segs) != 2 || !segs[0].Compressed || segs[1].Compressed || !segs[0].Indexed || !segs[1].Indexed {
				t.Fatalf("fixture segments = %+v, want a compressed and a raw segment, both indexed", segs)
			}
			checkOldLayoutAnswers(t, st, "opened")
			if _, err := st.Compact(context.Background()); err != nil {
				t.Fatal(err)
			}
			checkOldLayoutAnswers(t, st, "compacted")
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st, err = Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			checkOldLayoutAnswers(t, st, "reopened")
		})
	}
}

// TestSealCutsOnlyTheRecordIndex re-seals the records of the fixture's
// raw segment and compares the bytes with the older build's seal of
// them: equal once that seal's record index [indexOff, kixOff) is cut
// out, the footer's kixOff moved back by its length and the footer CRC
// recomputed. Records and key index are the same bytes.
func TestSealCutsOnlyTheRecordIndex(t *testing.T) {
	old, err := os.ReadFile(filepath.Join(oldLayoutDir, "segments/000000000004.seg"))
	if err != nil {
		t.Fatal(err)
	}
	foot := old[len(old)-segFooterV2Bytes:]
	if string(foot[32:]) != segFooterMagicV2 {
		t.Fatalf("fixture segment 4 footer magic %q", foot[32:])
	}
	kixOff, indexOff := int(binio.U64At(foot, 0)), int(binio.U64At(foot, 8))

	w, err := createSegment(t.TempDir(), 4, segKindAppend)
	if err != nil {
		t.Fatal(err)
	}
	replayRecords(old, segHeaderBytes, int64(indexOff), func(info core.RecordInfo, off int64) {
		if _, err := w.appendRecord(old[off:off+int64(info.Len)], info, false); err != nil {
			t.Fatal(err)
		}
	})
	seg, err := w.seal()
	if err != nil {
		t.Fatal(err)
	}
	defer seg.release()

	want := append([]byte(nil), old[:indexOff]...)
	want = append(want, old[kixOff:len(old)-segFooterV2Bytes]...)
	crc := crc32.Checksum(want, crcTable)
	want = binio.AppendU64(want, uint64(indexOff))
	want = binio.AppendU64(want, uint64(indexOff))
	want = append(want, foot[16:24]...) // count
	want = binio.AppendU32(want, crc)
	want = append(want, foot[28:]...) // reserved, magic
	if got := seg.data; !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Errorf("re-sealed segment is %d bytes, want %d (the older seal minus its %d-byte record index); first difference at %d", len(got), len(want), kixOff-indexOff, i)
	}
}

// TestManifestBytesPinned pins writeManifestV2's bytes for a fixed
// catalog at the value older builds wrote, so a MANIFEST stays
// readable across versions in both directions.
func TestManifestBytesPinned(t *testing.T) {
	var metas []Meta // in name order
	methods := []core.Method{core.TUPSK, core.LV2SK, core.PRISK, core.INDSK, core.CSK}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("t%02d.csv#col%d@key", i, i%3)
		metas = append(metas, Meta{
			Name: name, Method: methods[i%len(methods)], Role: core.Role(i % 2),
			Seed: uint32(i) * 2654435761, Size: 128 << (i % 4), Numeric: i%3 != 0,
			SourceRows: 1000 + 37*i, Entries: 100 + i, Bytes: int64(900 + 13*i),
			Segment: uint64(1 + i/16), Offset: int64(16 + 1024*(i%16)),
		})
	}
	segs := []manifestSeg{{seq: 1, kind: segKindCompacted, covered: 16400}, {seq: 2, covered: 9000}, {seq: 3, covered: 300}}
	path := filepath.Join(t.TempDir(), ManifestFile)
	if err := writeManifestV2(path, 4, segs, metas); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got, want := hex.EncodeToString(sum[:]), "17710d9891925f59f1fb61fe674399996815e952aac5525a399df301fb891811"; got != want {
		t.Errorf("MANIFEST digest %s, want %s", got, want)
	}
}
