package store

// The fs backend: durable sketch storage as append-only, mmap-backed
// segment files (segment.go). Mutations append packed records — Puts and
// tombstones — to the active segment, fsynced before acknowledgement;
// the active segment seals (index + CRC footer) when it outgrows
// rollBytes or the store closes, and sealed segments serve ranking
// queries as zero-copy record views out of their read-only mappings.
// Background compaction (compact.go) folds overwritten records and
// tombstones into fresh compacted segments.
//
// Crash recovery invariants, in play at every open:
//
//   - The manifest (manifest.go, v2) records the segment list and, per
//     segment, how many record bytes it covers. Records beyond a
//     covered offset — acked Puts after the last manifest flush — are
//     replayed into the index, each bounded by its own CRC, so an acked
//     mutation is never lost even though Put itself writes no manifest.
//   - An unsealed segment (crash before seal) is frozen: mapped as-is
//     and replayed up to its last CRC-valid record, never truncated or
//     sealed in place, so a read-only handle cannot corrupt a segment
//     another handle is still appending to.
//   - Append segments absent from the manifest with seq above the
//     manifest's horizon are post-flush rolls: replayed whole. Below the
//     horizon they are compaction sources whose unlink crashed after
//     the manifest swap: deleted. Compacted segments absent from the
//     manifest are output of a compaction whose swap never happened —
//     their contents still live in the listed sources: deleted.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"misketch/internal/core"
)

// DefaultSegmentBytes is the roll threshold for the active segment.
const DefaultSegmentBytes = 128 << 20

type fsBackend struct {
	dir       string
	rollBytes int64
	// compress makes compaction write FSST-compressed segments
	// (compress.go). The active append segment always writes raw
	// records; reading is format-driven per segment either way.
	compress bool

	segMu   sync.Mutex
	segs    map[uint64]*segment // sealed, live segments
	active  *segmentWriter      // nil until the first post-open append
	nextSeq uint64
	warming sync.WaitGroup // the open's key index and dict parses; close waits
}

func (b *fsBackend) name() string { return BackendFS }

// openFSBackend opens (creating or recovering as needed) the
// segment store rooted at dir and returns the backend together with the
// recovered catalog: the MANIFEST's table, with any replayed records
// merged in. An open that fails releases every segment it opened.
func openFSBackend(dir string, rollBytes int64, compress bool) (_ *fsBackend, cat catalog, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, cat, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	if rollBytes <= 0 {
		rollBytes = DefaultSegmentBytes
	}
	b := &fsBackend{dir: dir, rollBytes: rollBytes, compress: compress, segs: make(map[uint64]*segment), nextSeq: 1}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	removeTempOrphans(dir)

	man, manErr := readManifestV2(filepath.Join(dir, ManifestFile))
	if manErr == nil {
		b.nextSeq = man.nextSeq
	}

	// Inventory the segment files on disk.
	segFiles, err := scanSegmentFiles(dir)
	if err != nil {
		return nil, cat, err
	}

	dirty := false
	if manErr == nil {
		changed, err := b.recoverWithManifest(man, segFiles, &cat)
		if err != nil {
			// A manifest inconsistent with the files on disk (a segment
			// deleted out of band) or out of name order is not fatal:
			// the records are the truth. Fall back to a full replay.
			b.close() // nothing to seal yet: this closes the segments
			cat = catalog{}
			segFiles, err = scanSegmentFiles(dir)
			if err != nil {
				return nil, cat, err
			}
			if err := b.recoverFromSegments(segFiles, &cat); err != nil {
				return nil, cat, err
			}
			changed = true
		}
		dirty = changed
	} else if len(segFiles) > 0 {
		// Segments without a loadable manifest (missing, corrupt or
		// pre-checksum): the records are the truth — full replay.
		if err := b.recoverFromSegments(segFiles, &cat); err != nil {
			return nil, cat, err
		}
		dirty = true
	}
	for seq := range b.segs {
		if seq >= b.nextSeq {
			b.nextSeq = seq + 1
		}
	}

	if dirty {
		// The open path is single-threaded: the catalog is complete, so
		// every current byte is covered.
		if err := b.persist(cat.merged(), nil); err != nil {
			return nil, cat, err
		}
	}
	return b, cat, nil
}

// recoverWithManifest opens the manifest's segments, parses its entries
// into the catalog, replays any records past each covered offset, and
// disposes of orphan files per the rules in the package comment. Replay
// application order is append order: the manifest's list order
// (compacted output before the appends that outlived it, then by seq),
// then orphan append segments by seq. The replayed records go into the
// catalog's pending set.
func (b *fsBackend) recoverWithManifest(man *manifestV2, segFiles map[uint64]string, cat *catalog) (changed bool, err error) {
	var horizon uint64
	listed := make([]*segment, 0, len(man.segs))
	for _, ms := range man.segs {
		horizon = max(horizon, ms.seq)
		path, ok := segFiles[ms.seq]
		if !ok {
			return false, fmt.Errorf("store: manifest references missing segment %d", ms.seq)
		}
		delete(segFiles, ms.seq)
		seg, err := openSegment(path)
		if err != nil {
			return false, err
		}
		b.segs[seg.seq] = seg // adopted below, once the catalog exists
		listed = append(listed, seg)
	}
	// Their key indexes and dict sections are checked and parsed beside the
	// entry parse, not in the first view (which waits for one in progress).
	for _, seg := range listed {
		seg.acquire()
	}
	b.warming.Add(1)
	go func() {
		defer b.warming.Done()
		for _, seg := range listed {
			seg.keyIndex()
			seg.dict()
			seg.release()
		}
	}()
	if err := man.parseEntries(); err != nil {
		return false, err
	}
	*cat = catalog{table: man.metas, live: len(man.metas), bytes: man.bytes}
	for i, seg := range listed {
		replayed, err := b.adopt(seg, man.segs[i].covered, cat)
		if err != nil {
			return false, err
		}
		changed = changed || replayed
	}
	// Orphans: append segments above the horizon are post-flush rolls
	// and replay whole, in seq order; everything else is redundant.
	var orphans []uint64
	for seq := range segFiles {
		orphans = append(orphans, seq)
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	for _, seq := range orphans {
		path := segFiles[seq]
		seg, err := openSegment(path)
		if err != nil {
			return false, err
		}
		if seg.kind == segKindCompacted || seq < horizon {
			// Redundant with live segments: either a compaction output
			// whose manifest swap never happened, or a source whose
			// unlink crashed after the swap.
			seg.unlink.Store(true)
			seg.release()
			continue
		}
		if _, err := b.adopt(seg, 0, cat); err != nil {
			return false, err
		}
		changed = true
	}
	return changed, nil
}

// recoverFromSegments rebuilds the whole catalog index by replaying
// every segment: compacted segments first (they hold the oldest live
// records), then append segments, both in seq order.
func (b *fsBackend) recoverFromSegments(segFiles map[uint64]string, cat *catalog) error {
	var segs []*segment
	for _, path := range segFiles {
		seg, err := openSegment(path)
		if err != nil {
			return err
		}
		b.segs[seg.seq] = seg // for a failed open's close
		segs = append(segs, seg)
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].kind != segs[j].kind {
			return segs[i].kind == segKindCompacted
		}
		return segs[i].seq < segs[j].seq
	})
	for _, seg := range segs {
		if _, err := b.adopt(seg, 0, cat); err != nil {
			return err
		}
	}
	return nil
}

// adopt adds seg to the table and replays its records past covered into
// the catalog, reporting whether there were any: a sealed segment's up to
// its record end, a crash-frozen one's up to its last valid record.
func (b *fsBackend) adopt(seg *segment, covered int64, cat *catalog) (replayed bool, err error) {
	b.segs[seg.seq] = seg
	apply := func(info core.RecordInfo, off int64) {
		replayed = true
		applyRecord(cat, seg.seq)(info, off)
	}
	if seg.sealed {
		replayRecords(seg.data, max(covered, segHeaderBytes), seg.recEnd, apply)
	} else {
		err = freezeSegment(seg, covered, apply)
	}
	return replayed, err
}

// applyRecord folds one replayed record into the catalog.
func applyRecord(cat *catalog, seq uint64) func(info core.RecordInfo, off int64) {
	return func(info core.RecordInfo, off int64) {
		if info.Kind == core.RecordTombstone {
			cat.set(info.Name, Meta{})
			return
		}
		cat.set(info.Name, Meta{
			Name:       info.Name,
			Method:     info.Method,
			Role:       info.Role,
			Seed:       info.Seed,
			Size:       info.Size,
			Numeric:    info.Numeric,
			SourceRows: info.SourceRows,
			Entries:    info.Entries,
			Bytes:      int64(info.Len),
			Segment:    seq,
			Offset:     off,
		})
	}
}

// put appends a sketch record to the active segment (creating or rolling
// it as needed) and fsyncs before returning — the Put durability point.
func (b *fsBackend) put(name string, sk *core.Sketch) (uint64, int64, int64, error) {
	b.segMu.Lock()
	defer b.segMu.Unlock()
	w, err := b.activeLocked()
	if err != nil {
		return 0, 0, 0, err
	}
	off, length, err := w.appendSketch(name, sk, true)
	if err != nil {
		return 0, 0, 0, err
	}
	seq := w.seg.seq
	if err := b.maybeRollLocked(); err != nil {
		return 0, 0, 0, err
	}
	return seq, off, length, nil
}

func (b *fsBackend) tombstone(name string) (uint64, int64, error) {
	b.segMu.Lock()
	defer b.segMu.Unlock()
	w, err := b.activeLocked()
	if err != nil {
		return 0, 0, err
	}
	if err := w.appendTombstone(name); err != nil {
		return 0, 0, err
	}
	seq, end := w.seg.seq, w.off
	return seq, end, b.maybeRollLocked()
}

// activeLocked returns the active segment writer, creating one on first
// use. Callers hold segMu.
func (b *fsBackend) activeLocked() (*segmentWriter, error) {
	if b.active != nil {
		return b.active, nil
	}
	w, err := createSegment(b.dir, b.nextSeq, segKindAppend)
	if err != nil {
		return nil, err
	}
	b.nextSeq++
	b.active = w
	return w, nil
}

// maybeRollLocked seals the active segment once it outgrows rollBytes.
func (b *fsBackend) maybeRollLocked() error {
	if b.active == nil || b.active.off < b.rollBytes {
		return nil
	}
	return b.rollLocked()
}

// rollLocked seals the active segment (if any) into the sealed set.
func (b *fsBackend) rollLocked() error {
	if b.active == nil {
		return nil
	}
	seg, err := b.active.seal()
	if err != nil {
		return err
	}
	b.segs[seg.seq] = seg
	b.active = nil
	return nil
}

// roll seals the active segment; compaction calls it so every record is
// in a sealed (compactable) segment.
func (b *fsBackend) roll() error {
	b.segMu.Lock()
	defer b.segMu.Unlock()
	return b.rollLocked()
}

func (b *fsBackend) loadOwned(m Meta) (*core.Sketch, error) {
	sk, tag, err := b.load(m, false)
	if err != nil {
		return nil, err
	}
	if tag != 0 {
		sk = core.CloneSketch(sk)
	}
	return sk, nil
}

func (b *fsBackend) loadView(m Meta) (*core.Sketch, uint64, error) {
	return b.load(m, true)
}

// errSegmentGone marks a load that raced a compaction retiring its
// segment; the caller re-reads the (already updated) manifest and
// retries at the record's new home.
var errSegmentGone = fmt.Errorf("store: segment retired")

func (b *fsBackend) load(m Meta, borrow bool) (*core.Sketch, uint64, error) {
	b.segMu.Lock()
	if b.active != nil && b.active.seg.seq == m.Segment && !b.active.seg.sealed {
		w := b.active
		w.seg.acquire()
		b.segMu.Unlock()
		rec, err := w.readRecordAt(m.Offset, m.Bytes)
		w.seg.release()
		return finishLoad(rec, err, m, 0)
	}
	seg, ok := b.segs[m.Segment]
	if !ok {
		b.segMu.Unlock()
		return nil, 0, errSegmentGone
	}
	seg.acquire()
	b.segMu.Unlock()
	defer seg.release()
	if m.Offset < segHeaderBytes || m.Offset+m.Bytes > seg.recEnd {
		return nil, 0, fmt.Errorf("store: %q at segment %d [%d,%d) out of bounds", m.Name, m.Segment, m.Offset, m.Offset+m.Bytes)
	}
	if !borrow {
		// Owning loads are the by-name path (Get) — rare enough that the
		// record CRC is checked so bit rot surfaces as a load error, not a
		// silently mutated sketch. Borrowed rank views skip the check: the
		// hot ranking walk stays zero-overhead, and compressed records
		// (the compacted steady state) verify on decode regardless.
		if _, err := core.VerifyRecord(seg.data[:m.Offset+m.Bytes], int(m.Offset)); err != nil {
			return nil, 0, fmt.Errorf("store: reading %q: %w", m.Name, err)
		}
	}
	rec, err := core.DecodeRecordWith(seg.decoder(), seg.data[:m.Offset+m.Bytes], int(m.Offset), borrow)
	return finishLoad(rec, err, m, m.Segment)
}

func finishLoad(rec core.Record, err error, m Meta, tag uint64) (*core.Sketch, uint64, error) {
	if err != nil {
		return nil, 0, fmt.Errorf("store: reading %q: %w", m.Name, err)
	}
	if rec.Kind != core.RecordSketch || rec.Name != m.Name {
		return nil, 0, fmt.Errorf("store: record at segment %d+%d is not sketch %q", m.Segment, m.Offset, m.Name)
	}
	return rec.Sketch, tag, nil
}

// pin takes read pins on the given segments so borrowed views stay valid
// across a query even if a concurrent compaction retires the segments.
func (b *fsBackend) pin(segs map[uint64]struct{}) func() {
	b.segMu.Lock()
	pinned := make([]*segment, 0, len(segs))
	for seq := range segs {
		if seg, ok := b.segs[seq]; ok {
			seg.acquire()
			pinned = append(pinned, seg)
		} else if b.active != nil && b.active.seg.seq == seq {
			b.active.seg.acquire()
			pinned = append(pinned, b.active.seg)
		}
	}
	b.segMu.Unlock()
	return func() {
		for _, seg := range pinned {
			seg.release()
		}
	}
}

// persist writes the v2 manifest: the segment list with covered offsets
// plus one record per live sketch. The covered map (when non-nil) caps
// each segment's covered offset at what the metas snapshot actually
// indexes — a record durable beyond that cap (a Put or Delete mid-ack)
// stays uncovered and is replayed on the next open instead of lost.
func (b *fsBackend) persist(metas []Meta, covered map[uint64]int64) error {
	capAt := func(seq uint64, end int64) int64 {
		if covered == nil {
			return end
		}
		v, ok := covered[seq]
		if !ok {
			// A segment the index has never touched: only its header is
			// known-covered; everything else replays.
			return segHeaderBytes
		}
		if v < end {
			return v
		}
		return end
	}
	b.segMu.Lock()
	segs := make([]manifestSeg, 0, len(b.segs)+1)
	for _, seg := range b.segs {
		segs = append(segs, manifestSeg{seq: seg.seq, kind: seg.kind, covered: capAt(seg.seq, seg.recEnd)})
	}
	if b.active != nil {
		segs = append(segs, manifestSeg{seq: b.active.seg.seq, kind: b.active.seg.kind, covered: capAt(b.active.seg.seq, b.active.off)})
	}
	nextSeq := b.nextSeq
	b.segMu.Unlock()
	// List compacted segments before append segments (and both by seq):
	// replay applies manifest segments in list order, and compacted
	// records are always older than any append that outlived them.
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].kind != segs[j].kind {
			return segs[i].kind == segKindCompacted
		}
		return segs[i].seq < segs[j].seq
	})
	return writeManifestV2(filepath.Join(b.dir, ManifestFile), nextSeq, segs, metas)
}

// coveredSnapshot reports, per segment, the byte offset currently fully
// reflected in whatever index the caller just derived from this backend
// — the starting point for the Store's covered-offset bookkeeping.
func (b *fsBackend) coveredSnapshot() map[uint64]int64 {
	b.segMu.Lock()
	defer b.segMu.Unlock()
	out := make(map[uint64]int64, len(b.segs)+1)
	for seq, seg := range b.segs {
		out[seq] = seg.recEnd
	}
	if b.active != nil {
		out[b.active.seg.seq] = b.active.off
	}
	return out
}

// keyIndexOf returns the parsed key index of a sealed segment, or nil
// when the segment has none (unsealed, frozen, or failed its
// parse). The caller must hold a pin on the segment.
func (b *fsBackend) keyIndexOf(seq uint64) *keyIndex {
	b.segMu.Lock()
	seg, ok := b.segs[seq]
	b.segMu.Unlock()
	if !ok {
		return nil
	}
	return seg.keyIndex()
}

// segmentInfos snapshots per-segment observability state.
func (b *fsBackend) segmentInfos() []SegmentInfo {
	b.segMu.Lock()
	defer b.segMu.Unlock()
	infos := make([]SegmentInfo, 0, len(b.segs)+1)
	for _, seg := range b.segs {
		info := SegmentInfo{
			Seq: seg.seq, Compacted: seg.kind == segKindCompacted,
			Sealed: seg.sealed, Bytes: seg.size, Records: seg.count,
			Indexed: seg.kixOff > 0, IndexBytes: seg.kixLen,
		}
		if seg.dictOff > 0 {
			info.Compressed = true
			if d := seg.dict(); d != nil {
				info.CompressedBytes = int64(d.compBytes)
				info.RawBytes = int64(d.rawBytes)
			}
		}
		infos = append(infos, info)
	}
	if b.active != nil {
		infos = append(infos, SegmentInfo{
			Seq: b.active.seg.seq, Bytes: b.active.off, Records: len(b.active.index),
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Seq < infos[j].Seq })
	return infos
}

// close seals the active segment so the next open maps everything
// without replay, then empties the segment table: each segment is
// unmapped and closed, not unlinked, when its last pin drains.
func (b *fsBackend) close() error {
	b.warming.Wait()
	b.segMu.Lock()
	defer b.segMu.Unlock()
	err := b.rollLocked()
	if err != nil { // the seal failed: close the segment as it is, the next open replays it
		b.active.seg.release()
	}
	for seq, seg := range b.segs {
		delete(b.segs, seq)
		seg.release() // the table ref
	}
	return err
}

// scanSegmentFiles inventories dir's segment files by seq, clearing
// crashed temp files as it goes.
func scanSegmentFiles(dir string) (map[uint64]string, error) {
	segFiles := map[uint64]string{}
	segDir := filepath.Join(dir, segmentsDir)
	entries, err := os.ReadDir(segDir)
	if err != nil {
		if os.IsNotExist(err) {
			return segFiles, nil
		}
		return nil, fmt.Errorf("store: scanning %s: %w", segDir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(segDir, e.Name()))
			continue
		}
		if seq, ok := parseSegmentPath(e.Name()); ok {
			segFiles[seq] = filepath.Join(segDir, e.Name())
		}
	}
	return segFiles, nil
}

// removeTempOrphans clears crashed atomic-write leftovers in the store
// root.
func removeTempOrphans(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), ManifestFile+".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
