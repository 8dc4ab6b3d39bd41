package store

// Segment files: the unit of on-disk sketch storage. A segment is an
// append-only file of packed sketch records (internal/core/packed.go) —
// Puts and Delete tombstones appended in arrival order, each fsynced
// before the mutation is acknowledged — sealed with a key index and a
// CRC-32C footer once it stops growing (size roll-over, store close, or
// crash recovery). Sealed segments are immutable and mmap'd; ranking
// borrows decoded-in-place sketch views straight out of the mapping.
//
// On-disk layout (little-endian):
//
//	header (16 B): magic "MSEG" | version u8 | kind u8 | pad u16 | seq u64
//	records:       packed records, back to back, each 8-byte aligned
//	key index:     inverted key hash → posting list section (keyindex.go);
//	               absent when the segment could not be indexed
//	dict section:  compression dictionaries (compress.go); present only
//	               on compressed compaction output
//	footer (40 B): kixOff u64 | indexOff u64 | count u64 | crc u32 |
//	               reserved u32 | magic "MSEGIDX2"
//	        (48 B): dictOff u64 | kixOff u64 | indexOff u64 | count u64 |
//	               crc u32 | reserved u32 | magic "MSEGIDX3" — written
//	               instead of v2 when a dict section exists
//
// kind distinguishes WAL-order append segments from compaction output
// (see recovery in fsbackend.go); seq is the segment's identity within
// the store. indexOff is the end of the record region and count the
// records in it. Older builds wrote a per-record index section there,
// between the records and the key index; no build reads it, so such a
// segment opens as any other. The footer CRC covers every byte before
// the footer — sections included. kixOff locates the key index section
// (zero: none — queries fall back to the full candidate walk over that
// segment). An unsealed segment (crash before seal — including a crash
// before its key index is written) is recognized by its missing footer
// and replayed record by record, each record's own CRC bounding the
// valid prefix; it serves without a key index until any compaction
// folds it into indexed output.

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"misketch/internal/binio"
	"misketch/internal/core"
)

const (
	segMagic         = "MSEG"
	segFooterMagicV2 = "MSEGIDX2"
	segFooterMagicV3 = "MSEGIDX3" // v3: adds the compression dict section
	segVersion       = 1

	segHeaderBytes   = 16
	segFooterV2Bytes = 40
	segFooterV3Bytes = 48

	// segmentsDir holds the segment files inside the store root.
	segmentsDir = "segments"

	// Segment kinds: WAL-order appends vs compaction output. Recovery
	// treats orphans differently per kind (see fsbackend.go).
	segKindAppend    = 0
	segKindCompacted = 1
)

// segmentPath is the canonical file name of segment seq.
func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, segmentsDir, fmt.Sprintf("%012d.seg", seq))
}

// parseSegmentPath extracts the sequence number from a segment file
// name, reporting whether the name is well formed.
func parseSegmentPath(name string) (uint64, bool) {
	var seq uint64
	if n, err := fmt.Sscanf(name, "%d.seg", &seq); n != 1 || err != nil {
		return 0, false
	}
	if fmt.Sprintf("%012d.seg", seq) != name {
		return 0, false
	}
	return seq, true
}

// segment is one open segment file. Sealed segments are immutable and
// carry the read-only mapping views borrow from; the (at most one)
// unsealed segment is the append target and is read via pread instead.
type segment struct {
	seq     uint64
	kind    uint8
	path    string
	f       *os.File
	data    []byte // mmap of the whole file; nil while unsealed
	size    int64  // file size (sealed)
	recEnd  int64  // end of the record region (the footer's indexOff when sealed)
	count   int    // records in the record region
	sealed  bool
	footLen int64 // footer length (v2 or v3); meaningful when sealed
	// kixOff/kixLen locate the key index section (0: none), and
	// dictOff/dictLen the compression dict section (0: none — the segment
	// holds only raw records). Each is parsed once, by the open's warm-up
	// (fsbackend.go) or at first use, whichever comes first; the other
	// waits for it (keyIndex, dict).
	kixOff, kixLen    int64
	dictOff, dictLen  int64
	kixOnce, dictOnce sync.Once
	kixVal            *keyIndex // nil: none, or it failed its parse
	dictVal           *segDict  // nil: none, or it failed its parse

	// refs counts reasons the mapping must stay valid: 1 for segment-table
	// membership plus one per pinned reader. Whoever takes the segment out
	// of the table releases the table ref; the last release unmaps and
	// closes it, and unlinks the file if unlink was set first (a retired
	// compaction source, a redundant orphan: its records live elsewhere).
	refs   atomic.Int64
	unlink atomic.Bool
}

// acquire takes a reader pin. The caller must hold the backend's segment
// table lock (or otherwise know the segment is still live).
func (g *segment) acquire() { g.refs.Add(1) }

// release drops a pin (or the table ref); the last one tears the segment
// down.
func (g *segment) release() {
	if g.refs.Add(-1) != 0 {
		return
	}
	munmapFile(g.data)
	g.data = nil
	g.f.Close()
	if g.unlink.Load() {
		os.Remove(g.path)
	}
}

// segIndexEntry is one sealed-index record, mirroring core.RecordInfo
// plus the record's location.
type segIndexEntry struct {
	info core.RecordInfo
	off  int64
}

// segmentWriter builds the active (unsealed) segment: appends records,
// maintains the running CRC and index, and seals the file in place.
type segmentWriter struct {
	seg   *segment
	off   int64 // append offset == record region end
	crc   uint32
	index []segIndexEntry
	buf   []byte // record encode scratch, reused across appends
	// comp, when set, compresses appended sketches against per-segment
	// dictionaries and makes seal emit the dict section + v3 footer.
	// Only compaction sets it: the active append segment always writes
	// raw records (its bytes are acked and frozen; compression needs
	// the whole corpus up front anyway).
	comp *segCompressor
}

// decoder returns the record decoder matching the writer's compressor
// (nil when the writer writes raw records only).
func (w *segmentWriter) decoder() *core.RecordDecoder {
	if w.comp == nil {
		return nil
	}
	return w.comp.enc.Decoder()
}

// createSegment creates a fresh segment file for appending and makes its
// directory entry durable.
func createSegment(dir string, seq uint64, kind uint8) (*segmentWriter, error) {
	path := segmentPath(dir, seq)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", filepath.Dir(path), err)
	}
	f, err := openFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating segment %d: %w", seq, err)
	}
	hdr := make([]byte, 0, segHeaderBytes)
	hdr = append(hdr, segMagic...)
	hdr = append(hdr, segVersion, kind, 0, 0)
	hdr = binio.AppendU64(hdr, seq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("store: writing segment %d header: %w", seq, err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	seg := &segment{seq: seq, kind: kind, path: path, f: f}
	seg.refs.Store(1)
	return &segmentWriter{seg: seg, off: segHeaderBytes, crc: crc32.Checksum(hdr, crcTable)}, nil
}

// crcTable is the Castagnoli table shared with the record codec.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// sectionFrame is one kind of section after a sealed segment's records.
// The key index and the dict section share one frame:
//
//	header (16 B): magic [4] | version u8 | flags u8 = 0 | pad u16 = 0 |
//	               payloadLen u32 | crc u32 (CRC-32C of the payload)
//	payload:       payloadLen bytes
type sectionFrame struct {
	name    string // in errors
	magic   string
	version uint8
}

const sectionHeaderBytes = 16

// appendSection appends payload under the frame's header.
func (k sectionFrame) appendSection(dst, payload []byte) []byte {
	dst = append(dst, k.magic...)
	dst = append(dst, k.version, 0, 0, 0)
	dst = binio.AppendU32(dst, uint32(len(payload)))
	dst = binio.AppendU32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// openSection checks a section's header and returns its payload. exact
// requires the payload to fill the section; verifyCRC checks the
// payload's CRC.
func (k sectionFrame) openSection(section []byte, exact, verifyCRC bool) ([]byte, error) {
	if len(section) < sectionHeaderBytes {
		return nil, fmt.Errorf("store: %s section too short (%d bytes)", k.name, len(section))
	}
	// Version 1 defines no flags; an unknown flag (or scribbled pad)
	// could change future semantics, so fail closed on any of them.
	if string(section[:4]) != k.magic || section[4] != k.version || section[5]|section[6]|section[7] != 0 {
		return nil, fmt.Errorf("store: %s header % x is not magic %q, version %d, no flags", k.name, section[:8], k.magic, k.version)
	}
	n, room := uint64(binio.U32At(section, 8)), uint64(len(section)-sectionHeaderBytes)
	if n > room || exact && n != room {
		return nil, fmt.Errorf("store: %s payload length %d in %d bytes", k.name, n, room)
	}
	payload := section[sectionHeaderBytes : sectionHeaderBytes+int(n)]
	if verifyCRC {
		if got, want := crc32.Checksum(payload, crcTable), binio.U32At(section, 12); got != want {
			return nil, fmt.Errorf("store: %s fails CRC (%08x != %08x)", k.name, got, want)
		}
	}
	return payload, nil
}

// appendRecord writes one already-encoded record at the current offset.
// With sync set the record is fsynced before returning — the durability
// point a Put is acknowledged at. The bulk path (compaction)
// leaves sync off and fsyncs once at seal.
func (w *segmentWriter) appendRecord(rec []byte, info core.RecordInfo, sync bool) (int64, error) {
	off := w.off
	if _, err := w.seg.f.WriteAt(rec, off); err != nil {
		return 0, fmt.Errorf("store: appending to segment %d: %w", w.seg.seq, err)
	}
	if sync {
		if err := w.seg.f.Sync(); err != nil {
			return 0, fmt.Errorf("store: syncing segment %d: %w", w.seg.seq, err)
		}
	}
	w.crc = crc32.Update(w.crc, crcTable, rec)
	w.off += int64(len(rec))
	w.index = append(w.index, segIndexEntry{info: info, off: off})
	return off, nil
}

// appendSketch encodes and appends a sketch record; see appendRecord for
// the sync contract. It returns the record's offset and length. A writer
// carrying a compressor encodes against its dictionaries (falling back
// to raw per record when compression does not pay) and accrues the
// segment's compressed-vs-raw byte counters.
func (w *segmentWriter) appendSketch(name string, sk *core.Sketch, sync bool) (int64, int64, error) {
	var buf []byte
	var err error
	if w.comp != nil {
		buf, _, err = core.AppendRecordCompressed(w.buf[:0], name, sk, w.comp.enc)
		if err == nil {
			w.comp.rawBytes += uint64(core.RawRecordSize(name, sk))
			w.comp.compBytes += uint64(len(buf))
		}
	} else {
		buf, err = core.AppendRecord(w.buf[:0], name, sk)
	}
	if err != nil {
		return 0, 0, err
	}
	w.buf = buf
	info, err := core.DecodeRecordInfo(buf, 0)
	if err != nil {
		return 0, 0, err
	}
	off, err := w.appendRecord(buf, info, sync)
	return off, int64(len(buf)), err
}

// appendTombstone encodes and appends a deletion marker for name, fsynced
// before it returns: a Delete is acknowledged at that point.
func (w *segmentWriter) appendTombstone(name string) error {
	buf, err := core.AppendTombstone(w.buf[:0], name)
	if err != nil {
		return err
	}
	w.buf = buf
	info, err := core.DecodeRecordInfo(buf, 0)
	if err != nil {
		return err
	}
	_, err = w.appendRecord(buf, info, true)
	return err
}

// readRecordAt pread-decodes the record at off from the unsealed
// segment — the cache-miss path for sketches put since the segment was
// created (sealed segments serve views from their mapping instead).
func (w *segmentWriter) readRecordAt(off, length int64) (core.Record, error) {
	buf := make([]byte, length)
	if _, err := w.seg.f.ReadAt(buf, off); err != nil {
		return core.Record{}, fmt.Errorf("store: reading segment %d @%d: %w", w.seg.seq, off, err)
	}
	return core.DecodeRecord(buf, 0, false)
}

// seal appends the inverted key index, a compressed segment's dict
// section and the footer after the records in one write, fsyncs, maps
// the now-immutable file, and returns the sealed segment. The writer
// must not be used afterward. The key index is best-effort: a segment
// that cannot be indexed (an undecodable record, a format bound
// exceeded) seals with kixOff = 0 and queries fall back to the full
// candidate walk — correctness never depends on the index.
func (w *segmentWriter) seal() (*segment, error) {
	seg := w.seg
	tail := w.buildKeyIndex()
	kixOff, kixLen := int64(0), int64(len(tail))
	if kixLen > 0 {
		// A crash here leaves the records with no footer: the segment
		// reopens unsealed and is frozen-replayed record by record, so
		// acked Puts survive and only the index is lost — rebuilt by the
		// next compaction.
		if err := crashPoint("seal.keyindex"); err != nil {
			return nil, err
		}
		kixOff = w.off
	}
	var dictOff int64
	if w.comp != nil {
		// The dict section is mandatory for a compressed segment — its
		// compressed records are undecodable without it — so unlike the
		// key index there is no seal-without-it path.
		dictOff = w.off + kixLen
		tail = w.comp.appendSection(tail)
	}
	crc := crc32.Update(w.crc, crcTable, tail)
	// The v3 footer is the v2 footer with dictOff in front.
	footLen, magic := int64(segFooterV2Bytes), segFooterMagicV2
	if dictOff > 0 {
		footLen, magic = segFooterV3Bytes, segFooterMagicV3
		tail = binio.AppendU64(tail, uint64(dictOff))
	}
	tail = binio.AppendU64(tail, uint64(kixOff))
	tail = binio.AppendU64(tail, uint64(w.off)) // indexOff: the end of the records
	tail = binio.AppendU64(tail, uint64(len(w.index)))
	tail = binio.AppendU32(tail, crc)
	tail = binio.AppendU32(tail, 0)
	tail = append(tail, magic...)
	if _, err := seg.f.WriteAt(tail, w.off); err != nil {
		return nil, fmt.Errorf("store: sealing segment %d: %w", seg.seq, err)
	}
	if err := seg.f.Sync(); err != nil {
		return nil, fmt.Errorf("store: syncing segment %d: %w", seg.seq, err)
	}
	seg.size = w.off + int64(len(tail))
	seg.recEnd = w.off
	seg.count = len(w.index)
	seg.sealed = true
	seg.footLen = footLen
	seg.kixOff, seg.kixLen = kixOff, kixLen
	if seg.dictOff = dictOff; dictOff > 0 {
		seg.dictLen = seg.size - footLen - dictOff
	}
	var err error
	seg.data, err = mmapFile(seg.f, seg.size)
	if err != nil {
		return nil, fmt.Errorf("store: mapping segment %d: %w", seg.seq, err)
	}
	return seg, nil
}

// buildKeyIndex reads the writer's candidate-role sketch records back
// and assembles the inverted key index section (keyindex.go). It covers
// both seal paths — Put-driven rolls and compaction output, whose
// records were appended as raw bytes and never decoded. A nil return
// means the segment seals without an index.
func (w *segmentWriter) buildKeyIndex() []byte {
	kb := newKeyIndexBuilder()
	var rbuf []byte
	for _, e := range w.index {
		if e.info.Kind != core.RecordSketch || e.info.Role != core.RoleCandidate {
			continue
		}
		if cap(rbuf) < e.info.Len {
			rbuf = make([]byte, e.info.Len)
		}
		buf := rbuf[:e.info.Len]
		if _, err := w.seg.f.ReadAt(buf, e.off); err != nil {
			return nil
		}
		rec, err := core.DecodeRecordWith(w.decoder(), buf, 0, true)
		if err != nil || rec.Sketch == nil {
			return nil
		}
		kb.add(e.off, rec.Sketch.KeyHashes)
	}
	section, ok := kb.encode()
	if !ok {
		return nil
	}
	return section
}

// keyIndex parses (once) and returns the segment's key index, or nil
// when the segment has none or the section fails its parse — the
// fail-closed path back to the full candidate walk. Posting lists are
// validated later, each on its first read (keyindex.go). The caller
// must hold a pin on the segment.
func (g *segment) keyIndex() *keyIndex {
	if !g.sealed || g.kixOff == 0 {
		return nil
	}
	g.kixOnce.Do(func() {
		ix, err := parseKeyIndex(g.data[g.kixOff:g.kixOff+g.kixLen], true)
		if err != nil {
			return
		}
		// The section validates internally; also pin its offsets to this
		// segment's record region.
		for _, off := range ix.recOffsets {
			if off < segHeaderBytes || off >= g.recEnd {
				return
			}
		}
		g.kixVal = ix
	})
	return g.kixVal
}

// dict parses (once) and returns the segment's compression dict
// section, or nil when the segment has none or the section fails
// validation. Unlike the key index, a nil result for a segment that
// *has* compressed records is not a silent fallback: their decodes
// fail hard (decoder nil), surfacing the corruption to the query. The
// caller must hold a pin on the segment.
func (g *segment) dict() *segDict {
	if !g.sealed || g.dictOff == 0 {
		return nil
	}
	g.dictOnce.Do(func() {
		g.dictVal, _ = parseDictSection(g.data[g.dictOff : g.dictOff+g.dictLen])
	})
	return g.dictVal
}

// decoder returns the segment's record decoder (nil when the segment
// has no dict section or it failed validation).
func (g *segment) decoder() *core.RecordDecoder {
	if d := g.dict(); d != nil {
		return d.dec
	}
	return nil
}

// openSegment opens an existing segment file. A sealed segment comes
// back mapped and ready; an unsealed one (no valid footer — the store
// crashed before sealing it) is returned with sealed=false and must go
// through freezeSegment before use.
func openSegment(path string) (*segment, error) {
	f, err := openFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := fi.Size()
	seg := &segment{path: path, f: f}
	if size < segHeaderBytes {
		// The header itself was torn mid-create. The file name still
		// carries the identity; recovery rewrites the header.
		seq, ok := parseSegmentPath(filepath.Base(path))
		if !ok {
			f.Close()
			return nil, fmt.Errorf("store: %s: torn segment with unparseable name", path)
		}
		seg.seq, seg.kind = seq, segKindAppend
		seg.refs.Store(1)
		return seg, nil
	}
	hdr := make([]byte, segHeaderBytes)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: reading segment header %s: %w", path, err)
	}
	if string(hdr[:4]) != segMagic {
		f.Close()
		return nil, fmt.Errorf("store: %s: bad segment magic %q", path, hdr[:4])
	}
	if hdr[4] != segVersion {
		f.Close()
		return nil, fmt.Errorf("store: %s: unsupported segment version %d", path, hdr[4])
	}
	seg.seq = binio.U64At(hdr, 8)
	seg.kind = hdr[5]
	seg.refs.Store(1)
	// A sealed segment ends in a footer whose last 8 bytes are its magic.
	// The v3 footer is the v2 footer with dictOff in front, so one decoder
	// reads both, picking the length by magic.
	n := min(size-segHeaderBytes, segFooterV3Bytes)
	if n < segFooterV2Bytes {
		return seg, nil // unsealed: too short to hold a footer
	}
	tail := make([]byte, n)
	if _, err := f.ReadAt(tail, size-n); err != nil {
		f.Close()
		return nil, err
	}
	var footLen int64
	switch string(tail[n-8:]) {
	case segFooterMagicV2:
		footLen = segFooterV2Bytes
	case segFooterMagicV3:
		footLen = segFooterV3Bytes
	}
	if footLen == 0 || footLen > n {
		return seg, nil // unsealed: crashed before seal
	}
	foot, secEnd := tail[n-footLen:], size-footLen
	var dictOff int64
	if footLen == segFooterV3Bytes {
		dictOff, foot = int64(binio.U64At(foot, 0)), foot[8:]
	}
	kixOff := int64(binio.U64At(foot, 0))
	indexOff := int64(binio.U64At(foot, 8))
	count := int64(binio.U64At(foot, 16))
	if indexOff < segHeaderBytes || indexOff > secEnd {
		f.Close()
		return nil, fmt.Errorf("store: %s: implausible index offset %d", path, indexOff)
	}
	seg.size = size
	seg.recEnd = indexOff
	seg.count = int(count)
	seg.sealed = true
	seg.footLen = footLen
	// An implausible dict offset leaves the segment without a decoder:
	// raw records still serve, compressed ones fail their decodes (fail
	// closed, surfaced to the query).
	if dictOff >= indexOff && dictOff+sectionHeaderBytes <= secEnd {
		seg.dictOff = dictOff
		seg.dictLen = secEnd - dictOff
	}
	kixEnd := secEnd
	if seg.dictOff > 0 {
		kixEnd = seg.dictOff
	}
	// An implausible key index offset degrades to "no index" (the full
	// walk); the record region stands on its own.
	if kixOff >= indexOff && kixOff+sectionHeaderBytes <= kixEnd {
		seg.kixOff = kixOff
		seg.kixLen = kixEnd - kixOff
	}
	seg.data, err = mmapFile(f, size)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: mapping %s: %w", path, err)
	}
	return seg, nil
}

// verify is Store.Verify's check of one pinned segment: a sealed segment's
// footer CRC over every byte before the footer, or a frozen segment's
// record CRCs up to the end its open replayed to. Not on the query path.
func (g *segment) verify() error {
	if !g.sealed {
		if end := replayRecords(g.data, min(segHeaderBytes, g.recEnd), g.recEnd, nil); end != g.recEnd {
			return fmt.Errorf("store: segment %d fails a record CRC at offset %d", g.seq, end)
		}
		return nil
	}
	// Both footer versions end with crc u32 | reserved u32 | magic (8 B);
	// the CRC covers every byte before the footer, key index included.
	footer := g.data[g.size-g.footLen:]
	want := binio.U32At(footer, int(g.footLen)-16)
	if got := crc32.Checksum(g.data[:g.size-g.footLen], crcTable); got != want {
		return fmt.Errorf("store: segment %d fails CRC (%08x != %08x)", g.seq, got, want)
	}
	return nil
}

// replayRecords iterates the records in [from, to), validating each
// record's CRC, and returns the offset of the first invalid byte — the
// durable prefix. It is the crash-recovery walk: a torn tail simply ends
// the iteration.
func replayRecords(data []byte, from, to int64, fn func(info core.RecordInfo, off int64)) int64 {
	off := from
	for off < to {
		n, err := core.VerifyRecord(data[:to], int(off))
		if err != nil {
			break
		}
		if fn != nil {
			info, err := core.DecodeRecordInfo(data, int(off))
			if err != nil {
				break
			}
			fn(info, off)
		}
		off += int64(n)
	}
	return off
}

// freezeSegment prepares an unsealed segment (the store crashed — or
// another handle is still appending — before it was sealed) for
// read-only use WITHOUT mutating the file: the current contents are
// mapped, the prefix up to covered (the manifest's durable horizon, 0
// when unknown) is trusted, and records beyond it are replayed with
// their CRCs bounding the valid extent. Acked appends all carry valid
// CRCs, so none are lost; at worst the unsynced torn tail of a crashed
// write is ignored. Not truncating or sealing in place keeps a second
// read handle safe while the writing handle keeps appending — frozen
// bytes are never rewritten, appends land strictly beyond recEnd.
func freezeSegment(g *segment, covered int64, fn func(info core.RecordInfo, off int64)) error {
	fi, err := g.f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	g.data, err = mmapFile(g.f, size)
	if err != nil {
		return fmt.Errorf("store: mapping segment %d: %w", g.seq, err)
	}
	g.size = size
	if covered < segHeaderBytes {
		covered = segHeaderBytes
	}
	if covered > size {
		covered = size
	}
	g.recEnd = replayRecords(g.data, covered, size, func(info core.RecordInfo, off int64) {
		g.count++
		if fn != nil {
			fn(info, off)
		}
	})
	if g.recEnd < covered {
		g.recEnd = covered
	}
	return nil
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
