package store

// Compaction folds the append-only history down to its live records:
// every sealed (and frozen) segment's still-referenced records are
// copied — raw record bytes, no decode — into one fresh compacted
// segment, the manifest is atomically swapped to the new locations, and
// the source segments are retired. Overwritten versions and Delete
// tombstones simply aren't copied; that is the whole reclamation story.
//
// Concurrency: compaction runs against a manifest snapshot under the
// same isolation ranking uses. Puts and Deletes proceed freely during
// the copy phase — they append to the active segment, which compaction
// never touches — and the swap phase moves a sketch's location only if
// it still points into a source segment, so a racing overwrite wins.
// In-flight ranking queries hold pins on the source segments; their
// mappings (and files) are torn down only when the last pin drains.
//
// Crash safety: the compacted segment is sealed and fsynced before the
// manifest references it, and sources are unlinked only after the swap
// is durable. A crash in between leaves either redundant sources (the
// swap happened: they are deleted as sub-horizon orphans on open) or a
// redundant compacted segment (it didn't: deleted as an unreferenced
// compacted orphan). The kill-point tests walk every window.

import (
	"context"
	"fmt"
	"os"

	"misketch/internal/core"
)

// CompactStats reports one compaction pass.
type CompactStats struct {
	// Compacted reports whether a pass ran (false: nothing to fold).
	Compacted bool
	// SegmentsBefore/After count live segments around the pass.
	SegmentsBefore, SegmentsAfter int
	// BytesBefore/After total the live segments' file sizes.
	BytesBefore, BytesAfter int64
	// Records is the live record count copied; Reclaimed the dead bytes
	// dropped.
	Records   int
	Reclaimed int64
}

// Compact folds all sealed segments into one fresh compacted segment,
// dropping overwritten records and tombstones, and retires the sources.
// It is a no-op on a store whose records already live in a single
// fully-live sealed segment; a crash-frozen segment always counts as
// work, and the pass's output carries the key index the torn seal lost.
// Safe to run concurrently with queries and mutations; concurrent Compact
// calls serialize.
func (s *Store) Compact(ctx context.Context) (CompactStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Snapshot phase, with mutations held off (see Store.appendMu).
	s.appendMu.Lock()
	s.mu.Lock()
	unlock := func() {
		s.mu.Unlock()
		s.appendMu.Unlock()
	}
	if err := s.closedErr(); err != nil {
		unlock()
		return CompactStats{}, err
	}
	// Roll the active segment so every record is in a compactable
	// (immutable) segment; appends during the pass go to a new active.
	if err := s.backend.roll(); err != nil {
		unlock()
		return CompactStats{}, err
	}
	s.view = nil // the rolled segment's records are indexed from here on
	// Pin the sources for the copy phase; retirement is pin-aware, so the
	// pins also cover any in-flight queries.
	sources, srcBytes, release := s.backend.pinSealed()
	live := make([]Meta, 0, s.cat.live) // in name order, as the table is
	for _, m := range s.cat.merged() {
		if _, ok := sources[m.Segment]; ok {
			live = append(live, m)
		}
	}
	stats := CompactStats{SegmentsBefore: len(sources), BytesBefore: srcBytes, Records: len(live)}
	// A store opened with Compression set treats uncompressed sources as
	// work: the `store compact -compress` backfill and the
	// background loop both rewrite them even when nothing else would
	// trigger a pass. The inverse mismatch (compressed segments in a
	// store opened without Compression) is not a trigger — they stay
	// readable as-is and decompress whenever a real pass folds them.
	wantRecompress := false
	if s.backend.compress {
		for _, seg := range sources {
			if seg.dictOff == 0 {
				wantRecompress = true
				break
			}
		}
	}
	if len(sources) == 0 || (len(sources) == 1 && !hasGarbage(sources, len(live)) && !wantRecompress) {
		release()
		unlock()
		stats.SegmentsAfter = stats.SegmentsBefore
		stats.BytesAfter = stats.BytesBefore
		return stats, nil
	}
	newSeq := s.backend.allocSeq()
	unlock()

	// Copy phase, outside the store lock: live records move, read by pread
	// from the sources, into the new segment in name order (locality for
	// prefix scans). No fsync per record — one seal at the end.
	newLocs, newSeg, err := s.backend.writeCompacted(ctx, newSeq, live, sources)
	release()
	if err != nil {
		return stats, err
	}
	if err := crashPoint("compact.sealed"); err != nil {
		return stats, err
	}

	// Swap phase: move each still-unmoved sketch to its new location,
	// persist the manifest, then retire the sources.
	s.mu.Lock()
	s.backend.install(newSeg)
	s.cat.move(live, newLocs, sources)
	// The swap bumps no generation (the contents did not change), which
	// is why the view cannot be keyed on Gen: the records moved, and the
	// sources retire below, so no view of them may outlive this section.
	s.view = nil
	s.covered[newSeg.seq] = newSeg.recEnd // sealed and fully indexed
	for seq := range sources {
		delete(s.covered, seq)
	}
	s.dirty = true
	if err := s.flushLocked(); err != nil {
		s.mu.Unlock()
		return stats, err
	}
	if err := crashPoint("compact.swapped"); err != nil {
		s.mu.Unlock()
		return stats, err
	}
	// Drop every cached view borrowing from the sources before their
	// mappings are torn down.
	s.cache.DeleteFunc(func(_ string, ent cachedSketch) bool {
		_, gone := sources[ent.seg]
		return ent.seg != 0 && gone
	})
	s.backend.retire(sources)
	// Persist again now that the sources are out of the segment table:
	// the manifest written above still listed them (needed in case we
	// crashed before retiring), and leaving it that way would force a
	// full-replay recovery on the next open.
	s.dirty = true
	if err := s.flushLocked(); err != nil {
		s.mu.Unlock()
		return stats, err
	}
	s.mu.Unlock()

	s.compactions.Add(1)
	stats.Compacted = true
	stats.SegmentsAfter = 1
	stats.BytesAfter = newSeg.size
	stats.Reclaimed = srcBytes - newSeg.size
	return stats, nil
}

// hasGarbage reports whether the single source segment holds anything a
// compaction could reclaim. (Frozen segments undercount records — their
// count covers only the replayed tail — which at worst triggers a
// compaction that finds nothing to drop; never the reverse.)
func hasGarbage(sources map[uint64]*segment, liveRecords int) bool {
	for _, seg := range sources {
		if !seg.sealed || seg.count != liveRecords {
			return true // dead records (overwrites or tombstones)
		}
	}
	// A single fully-live segment re-packs identically; skip.
	return false
}

// recLoc is a record location in the new compacted segment.
type recLoc struct {
	seg         uint64
	off, length int64
}

// pinSealed pins every sealed and frozen segment and returns them with
// their total size and the release func. Listing and pinning share one
// segMu section: a segment a compaction installs and retires in between
// is either returned under its pin or not returned at all.
func (b *fsBackend) pinSealed() (map[uint64]*segment, int64, func()) {
	b.segMu.Lock()
	defer b.segMu.Unlock()
	out := make(map[uint64]*segment, len(b.segs))
	var bytes int64
	for seq, seg := range b.segs {
		seg.acquire()
		out[seq] = seg
		bytes += seg.size
	}
	return out, bytes, func() {
		for _, seg := range out {
			seg.release()
		}
	}
}

// allocSeq reserves the next segment sequence number.
func (b *fsBackend) allocSeq() uint64 {
	b.segMu.Lock()
	defer b.segMu.Unlock()
	seq := b.nextSeq
	b.nextSeq++
	return seq
}

// writeCompacted copies the live records out of the pinned sources into a
// fresh compacted segment and seals it. With the backend's compression
// opt-in the records are re-encoded against freshly trained per-segment
// dictionaries (one decode pass to train, one to encode); without it
// records move as raw bytes — except records that are themselves
// compressed (sources from a previously compressed store), which are
// decoded through their segment's dictionaries and rewritten raw, since
// their encodings are meaningless outside them.
func (b *fsBackend) writeCompacted(ctx context.Context, seq uint64, live []Meta, sources map[uint64]*segment) ([]recLoc, *segment, error) {
	w, err := createSegment(b.dir, seq, segKindCompacted)
	if err != nil {
		return nil, nil, err
	}
	abort := func(err error) ([]recLoc, *segment, error) {
		w.seg.f.Close()
		os.Remove(w.seg.path)
		return nil, nil, err
	}
	if b.compress {
		comp, err := trainCompressor(ctx, live, sources)
		if err != nil {
			return abort(err)
		}
		w.comp = comp
	}
	locs := make([]recLoc, 0, len(live)) // parallel to live
	var raw []byte
	for _, m := range live {
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
		src, err := readSource(sources, &raw, m)
		if err != nil {
			return abort(err)
		}
		info, err := core.DecodeRecordInfo(raw, 0)
		if err != nil {
			return abort(fmt.Errorf("store: compacting %q: %w", m.Name, err))
		}
		if w.comp != nil || info.Compressed {
			rec, err := core.DecodeRecordWith(src.decoder(), raw, 0, true)
			if err != nil {
				return abort(fmt.Errorf("store: compacting %q: %w", m.Name, err))
			}
			if rec.Sketch == nil {
				return abort(fmt.Errorf("store: compacting %q: record is not a sketch", m.Name))
			}
			off, length, err := w.appendSketch(m.Name, rec.Sketch, false)
			if err != nil {
				return abort(err)
			}
			locs = append(locs, recLoc{seg: seq, off: off, length: length})
			continue
		}
		off, err := w.appendRecord(raw, info, false)
		if err != nil {
			return abort(err)
		}
		locs = append(locs, recLoc{seg: seq, off: off, length: m.Bytes})
	}
	seg, err := w.seal()
	if err != nil {
		return abort(err)
	}
	return locs, seg, nil
}

// readSource preads live record m out of its source into *buf, so a
// compaction never faults a source's mapping into RSS. What a decode
// borrows of *buf is valid until the next read.
func readSource(sources map[uint64]*segment, buf *[]byte, m Meta) (*segment, error) {
	src, ok := sources[m.Segment]
	if !ok || m.Offset < segHeaderBytes || m.Offset+m.Bytes > src.recEnd {
		return nil, fmt.Errorf("store: %q at segment %d [%d,%d) is not in a compaction source", m.Name, m.Segment, m.Offset, m.Offset+m.Bytes)
	}
	return src, src.readAt(buf, m.Offset, m.Bytes)
}

// install adds a freshly sealed segment to the live set.
func (b *fsBackend) install(seg *segment) {
	b.segMu.Lock()
	b.segs[seg.seq] = seg
	b.segMu.Unlock()
}

// retire removes the segments from the live set; each is unmapped,
// closed and unlinked when its last pin drains.
func (b *fsBackend) retire(sources map[uint64]*segment) {
	b.segMu.Lock()
	for seq := range sources {
		delete(b.segs, seq)
	}
	b.segMu.Unlock()
	for _, seg := range sources {
		seg.unlink.Store(true)
		seg.release() // the table ref
	}
}
