// Package store persists sketches and serves data-discovery queries
// over them. It is the system layer the paper's workflow implies:
// sketches are built once per (table, key column, value column) triple at
// ingestion time, stored next to the dataset catalog, and ranking queries
// ("which candidate features carry information about my target?") run
// against the stored sketches alone — no source data access, no joins.
//
// Storage is pluggable (OpenOptions.Backend). The default "fs" backend
// packs sketches into append-only segment files (segment.go, fsbackend.go):
// Puts and Delete tombstones append fsynced records, sealed segments are
// mmap'd and ranking decodes candidate sketches in place out of the
// mapping — a cold discovery query performs no per-candidate syscalls
// and no array copies — and a background (or on-demand) compaction folds
// overwritten records and tombstones into fresh segments. The "mem"
// backend keeps everything in process memory for diskless servers and
// tests. Both sit under the same manifest-indexed catalog, byte-bounded
// decoded-sketch LRU, and worker-pool ranking machinery.
package store

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"misketch/internal/cache"
	"misketch/internal/core"
	"misketch/internal/mi"
)

// ErrNotFound is the sentinel wrapped by Get and Delete when no sketch
// with the requested name exists. Callers translating store errors into
// protocol status codes (the HTTP service's 404-vs-500 split) must test
// with errors.Is against this sentinel: every other error from Get — a
// CRC mismatch, a truncated record, an I/O failure — is store-side
// corruption, not a missing name, and conflating the two turns data
// loss into a silent "not found".
var ErrNotFound = errors.New("sketch not found")

var errClosed = fmt.Errorf("store: %w", fs.ErrClosed) // what a closed Store's entry points return

// Store is a catalog of persisted sketches with a manifest index, a
// bounded in-memory cache, and a pluggable storage backend. It is safe
// for concurrent use by one process; concurrent writers from separate
// processes are not supported (readers are).
type Store struct {
	dir     string
	backend backend

	mu sync.Mutex
	// cat is the catalog: every live record, by name (manifest.go).
	cat catalog
	// view is what rank, List and Metas read in cat's place
	// (catalogview.go); nil from any mutation until one of them runs.
	view  *catalogView
	cache *sketchCache // nil when caching is disabled
	dirty bool         // manifest has unpersisted mutations
	// covered tracks, per segment, the end offset of the last record
	// whose index entry the catalog reflects. A Flush snapshots it
	// together with the manifest, so a mutation that is durable in its
	// segment but not yet indexed (mid-Put, mid-Delete) stays below the
	// persisted covered horizon and is replayed — not lost — if the
	// process dies before the next flush.
	covered map[uint64]int64
	// gen counts Put/Delete mutations; Get uses it to detect a mutation
	// racing its unlocked load (two sketch versions can share identical
	// metadata, so manifest comparison is not enough). A single
	// store-wide counter keeps memory bounded; the cost is only that a
	// read concurrent with any write skips populating the cache.
	//
	// It is an atomic so Gen() — the fence every result-caching layer
	// above the store reads on its hot path — never touches the store
	// mutex: a warm cached rank must not contend with an in-flight Put,
	// Delete, or compaction. Mutation sites still increment while
	// holding mu, so a generation observed under the lock is exact and
	// a lock-free read is never newer than the manifest state that
	// produced it.
	gen atomic.Uint64

	// compactStop, closed by Close, ends the auto-compaction loop.
	compactStop chan struct{}
	compactLoop sync.WaitGroup // Close waits for the loop to exit
	compactMu   sync.Mutex     // serializes Compact calls
	// appendMu makes a mutation's record append and manifest update one
	// step to compaction: Put and Delete hold it shared across both,
	// compaction exclusively while it seals the active segment and
	// snapshots the manifest. Otherwise a record appended before the seal
	// and indexed after the snapshot is retired with its source segment.
	appendMu sync.RWMutex
	closed   atomic.Bool // set by Close while it holds appendMu and mu

	diskReads   atomic.Int64 // record decodes out of the backend
	puts        atomic.Int64 // successful Put calls
	deletes     atomic.Int64 // successful Delete calls
	rankQueries atomic.Int64 // ranks of one train (including failed ones)
	rankBatches atomic.Int64 // ranks of several trains (including failed ones)
	rankPanics  atomic.Int64 // see Stats.RankPanics
	compactions atomic.Int64 // completed compaction passes
	// ranked is every rank's trace, each added under mu as its call returns.
	ranked RankTrace

	// rankScratch is the estimator scratch pool ranking workers draw
	// from, so consecutive queries on one handle reuse grown-to-size
	// buffers.
	rankScratch core.ScratchPool
	// selectPool recycles index selection's overlap accumulators
	// (*selectScratch), which are sized by segment, not by query.
	selectPool sync.Pool
}

// Defaults for OpenOptions zero values.
const (
	DefaultCacheBytes = 64 << 20

	// DefaultCompactMinGarbage is the dead-byte fraction above which the
	// auto-compaction loop compacts.
	DefaultCompactMinGarbage = 0.3
)

// OpenOptions tunes a store handle.
type OpenOptions struct {
	// CacheBytes bounds the decoded-sketch LRU cache. Zero means
	// DefaultCacheBytes; a negative value disables caching entirely.
	CacheBytes int64
	// Backend selects the storage engine: BackendFS (default) packs
	// sketches into mmap-backed segment files under dir; BackendMem
	// keeps everything in memory and never touches dir.
	Backend string
	// SegmentBytes is the fs backend's segment roll threshold (zero
	// means DefaultSegmentBytes).
	SegmentBytes int64
	// Compression makes compaction write FSST-compressed segments:
	// categorical values packed against a per-segment symbol table, key
	// hashes delta/dictionary-coded (see internal/store/compress.go).
	// The active append segment always stays raw (its records are
	// acked and frozen), so compression lands at the next compaction —
	// Store.Compact, the CompactEvery loop, or the `store compact
	// -compress` backfill. Reading is format-driven per segment, so
	// compressed and raw segments mix freely and a store opened
	// without Compression still reads compressed segments (they are
	// rewritten raw whenever a compaction folds them).
	Compression bool
	// CompactEvery, when positive, starts a background loop that
	// examines the fs store every interval and compacts once the dead
	// fraction of segment bytes exceeds CompactMinGarbage. Close stops
	// the loop.
	CompactEvery time.Duration
	// CompactMinGarbage overrides the dead-byte fraction that triggers
	// auto-compaction (zero means DefaultCompactMinGarbage).
	CompactMinGarbage float64
}

// Open opens (creating if necessary) a sketch store rooted at dir with
// default options.
func Open(dir string) (*Store, error) {
	return OpenWithOptions(dir, OpenOptions{})
}

// OpenWithOptions opens (creating if necessary) a sketch store rooted at
// dir. A checksummed manifest that loads cleanly is trusted as-is and
// becomes the catalog as parsed: opening an indexed store costs one file
// read and one mmap per segment, plus a one-pass parse of the entries and
// an order check of each name — no hashing, sorting or allocation per
// entry — while the key indexes are checked on a second goroutine. Acked
// mutations from after the last manifest write are recovered by replaying
// the segment tails into the catalog's pending set, merged once before the
// healed manifest is written. When the manifest is missing, corrupt or
// inconsistent with the segment files the store heals itself from the
// segment records alone and persists the result. This is the store's one
// repair path: a handle keeps the backend, cache and covered offsets it
// opened with for its whole life.
func OpenWithOptions(dir string, opt OpenOptions) (*Store, error) {
	s := &Store{dir: dir, compactStop: make(chan struct{})}
	s.selectPool.New = func() any { return new(selectScratch) }
	if opt.CacheBytes >= 0 {
		max := opt.CacheBytes
		if max == 0 {
			max = DefaultCacheBytes
		}
		s.cache = cache.NewLRU[string, cachedSketch](max)
	}
	switch opt.Backend {
	case "", BackendFS:
		fb, cat, err := openFSBackend(dir, opt.SegmentBytes, opt.Compression)
		if err != nil {
			return nil, err
		}
		s.backend = fb
		s.cat, s.covered = cat, fb.coveredSnapshot()
	case BackendMem:
		s.backend = newMemBackend()
		s.covered = make(map[uint64]int64)
	default:
		return nil, fmt.Errorf("store: unknown backend %q", opt.Backend)
	}
	if opt.CompactEvery > 0 {
		minGarbage := opt.CompactMinGarbage
		if minGarbage <= 0 {
			minGarbage = DefaultCompactMinGarbage
		}
		s.compactLoop.Add(1)
		go s.autoCompact(opt.CompactEvery, minGarbage)
	}
	return s, nil
}

// Flush persists the manifest if it has unsaved mutations. Put and
// Delete update the manifest in memory only (their records are already
// durable in the backend; rewriting the index on every mutation would
// make bulk ingestion quadratic); a store that crashes between Flushes
// recovers the un-indexed mutations by replaying segment tails on the
// next Open.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return errClosed
	}
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if !s.dirty {
		return nil
	}
	if err := s.backend.persist(s.cat.merged(), s.covered); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// setMetaLocked records name's manifest record (a Delete of name when m
// is the zero Meta) and drops the catalog view. Every Put and Delete
// goes through here; compaction's swap writes a new table instead.
func (s *Store) setMetaLocked(name string, m Meta) {
	s.cat.set(name, m)
	s.view = nil
}

// Close ends the store's life. After an in-flight Compact, Put or Delete
// it flushes the manifest and seals the active segment, so the next open
// maps everything without replay; then it stops the auto-compaction loop
// and drops the cache, the catalog and every segment (a rank in flight
// keeps the ones it pinned until it returns). From then on every method
// but Stats, Segments, Gen, Dir and Backend fails with an error wrapping
// fs.ErrClosed (Meta and Metas report nothing), even if the flush or the
// seal failed, and a second Close returns nil.
func (s *Store) Close() error {
	defer s.compactLoop.Wait() // runs last: a pass the loop is in needs the locks below
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Swap(true) {
		return nil
	}
	close(s.compactStop)
	err := s.flushLocked()
	s.cache.DeleteFunc(func(string, cachedSketch) bool { return true })
	s.view, s.cat, s.covered = nil, catalog{}, nil
	return errors.Join(err, s.backend.close())
}

// Put persists a sketch under the given name (conventionally
// "table.csv#column@key"), overwriting any previous version. The write
// is durable before Put returns: the record is appended to the active
// segment and fsynced (a crash afterwards replays it from the segment on
// the next open, manifest or no manifest). A sketch holding ±Inf is
// refused (core.CheckFinite).
func (s *Store) Put(name string, sk *core.Sketch) error {
	if name == "" {
		return fmt.Errorf("store: empty sketch name")
	}
	if err := core.CheckFinite(sk); err != nil {
		return fmt.Errorf("store: %q: %w", name, err)
	}
	s.appendMu.RLock()
	defer s.appendMu.RUnlock()
	if s.closed.Load() {
		return errClosed
	}
	seg, off, length, err := s.backend.put(name, sk)
	if err != nil {
		return fmt.Errorf("store: writing %q: %w", name, err)
	}
	if err := crashPoint("put.appended"); err != nil {
		return err
	}
	s.mu.Lock()
	s.setMetaLocked(name, metaOf(name, sk, seg, off, length))
	if end := off + length; s.covered[seg] < end {
		s.covered[seg] = end
	}
	gen := s.gen.Add(1)
	s.dirty = true
	s.cacheLocked(name, sk, 0, gen)
	s.mu.Unlock()
	s.puts.Add(1)
	return nil
}

// Get loads the named sketch (from cache when warm). The returned sketch
// owns its memory (or, on the mem backend, is the stored sketch itself)
// and stays valid indefinitely.
func (s *Store) Get(name string) (*core.Sketch, error) {
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		if ent, ok := s.cache.Get(name); ok {
			sk := ent.sk
			if ent.seg != 0 {
				// A ranking query cached a borrowed view; hand the
				// caller an owning copy instead of a sketch whose
				// memory a compaction could retire. The clone happens
				// under the lock — a concurrent compaction purges and
				// unmaps retired segments under the same lock, so the
				// view's bytes cannot vanish mid-copy — and replaces
				// the borrowed entry so later Gets are plain hits.
				sk = core.CloneSketch(sk)
				s.cacheLocked(name, sk, 0, ent.gen)
			}
			s.mu.Unlock()
			return sk, nil
		}
		m, known := s.cat.get(name)
		gen := s.gen.Load()
		s.mu.Unlock()
		if !known { // Close empties the catalog
			return nil, cmp.Or(s.closedErr(), fmt.Errorf("store: no sketch %q: %w", name, ErrNotFound))
		}
		sk, err := s.backend.loadOwned(m)
		if (err == errSegmentGone || errors.Is(err, ErrNotFound)) && attempt < 3 {
			continue // the record moved, or left with a Delete or Close: re-read the catalog
		}
		if err != nil {
			return nil, err
		}
		s.diskReads.Add(1)
		s.mu.Lock()
		// Only cache the load if no Put or Delete raced it: a stale (or
		// deleted) version must not be resurrected into the cache over
		// the mutation's result.
		if _, ok := s.cat.get(name); ok && s.gen.Load() == gen {
			s.cacheLocked(name, sk, 0, gen)
		}
		s.mu.Unlock()
		return sk, nil
	}
}

// Delete removes the named sketch: a tombstone record is appended
// durably and the entry leaves the manifest and cache; compaction later
// reclaims the dead bytes.
func (s *Store) Delete(name string) error {
	s.appendMu.RLock()
	defer s.appendMu.RUnlock()
	s.mu.Lock()
	_, known := s.cat.get(name)
	s.mu.Unlock()
	if !known { // Close empties the catalog
		return cmp.Or(s.closedErr(), fmt.Errorf("store: no sketch %q: %w", name, ErrNotFound))
	}
	seg, end, err := s.backend.tombstone(name)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.setMetaLocked(name, Meta{})
	s.dirty = true
	if s.covered[seg] < end {
		s.covered[seg] = end
	}
	s.gen.Add(1)
	s.cache.Delete(name)
	s.mu.Unlock()
	s.deletes.Add(1)
	return nil
}

// closedErr is errClosed once Close has run, nil before.
func (s *Store) closedErr() error {
	if s.closed.Load() {
		return errClosed
	}
	return nil
}

// List returns the names of all stored sketches, sorted. It reads only
// the manifest — no storage access.
func (s *Store) List() ([]string, error) {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil, errClosed
	}
	v := s.viewLocked()
	s.mu.Unlock()
	names := make([]string, len(v.entries))
	for i := range v.entries {
		names[i] = v.entries[i].Name
	}
	return names, nil
}

// Meta returns the manifest record for the named sketch.
func (s *Store) Meta(name string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cat.get(name)
}

// Metas returns every manifest record, sorted by name; nil once the
// store is closed.
func (s *Store) Metas() []Meta {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil
	}
	v := s.viewLocked()
	s.mu.Unlock()
	return slices.Clone(v.entries) // the view's own slice is shared and immutable
}

// Verify is the bit-rot check: it reads every sealed segment in full
// against its footer CRC and replays every frozen segment's record CRCs up
// to the end open recovered, and returns one error per failing segment
// (errors.Join), naming it. The active segment, whose records this handle
// appended and fsynced, is not read. Verify repairs nothing — a record
// whose bytes rotted is gone, and opening the store is the one repair path
// for everything else — and runs beside queries, mutations and compaction:
// the segments it reads are pinned while it reads them. Nil on the mem
// backend.
func (s *Store) Verify() error {
	segs, release := map[uint64]*segment(nil), func() {}
	if fb, ok := s.backend.(*fsBackend); ok {
		segs, _, release = fb.pinSealed()
	}
	defer release()
	if s.closed.Load() { // after the pins: Close marks the store before it empties the table
		return errClosed
	}
	var errs []error
	for _, seq := range slices.Sorted(maps.Keys(segs)) {
		if err := segs[seq].verify(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Stats are observability counters for a store handle.
//
// Activity counters are process-lifetime only: they count work through
// this handle since it was opened, are never persisted, and reset to
// zero on the next Open (fields describing current state — Sketches,
// CacheBytes, Segments, SegmentBytes, LiveBytes — are re-derived
// instead). This is deliberate: the manifest records what the store
// *contains*, not what any particular process *did* to it, so two
// handles on the same directory never fight over counter state and a
// crashed process cannot leave half-written telemetry behind. Callers
// wanting durable metrics should export Stats snapshots to their own
// monitoring system. TestStatsAreProcessLifetime pins this contract.
//
// The field order and tags are the "store" object of the discovery
// server's GET /v1/stats, which serves this struct as is.
type Stats struct {
	// Backend is the storage engine ("fs" or "mem").
	Backend string `json:"backend"`
	// Sketches is the number of indexed sketches.
	Sketches int `json:"sketches"`
	// Segments is the number of live segment files and SegmentBytes
	// their total size; LiveBytes is the portion still referenced by
	// the manifest — the rest is garbage awaiting compaction.
	// IndexedSegments counts live segments carrying an inverted key
	// index and PostingBytes their total index section size on disk.
	// All zero on the mem backend.
	Segments        int   `json:"segments"`
	IndexedSegments int   `json:"indexed_segments"`
	SegmentBytes    int64 `json:"segment_bytes"`
	PostingBytes    int64 `json:"posting_bytes"`
	LiveBytes       int64 `json:"live_bytes"`
	// Compactions counts completed compaction passes by this handle.
	Compactions int64 `json:"compactions"`
	// CacheBytes is the current size of the decoded-sketch cache.
	CacheBytes int64 `json:"cache_bytes"`
	// CacheHits/CacheMisses/Evictions count cache outcomes.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Evictions   int64 `json:"evictions"`
	// DiskReads counts sketch record decodes out of the backend — the
	// operation manifest filtering and the cache exist to avoid.
	DiskReads int64 `json:"disk_reads"`
	// Puts/Deletes count successful mutations through this handle.
	Puts    int64 `json:"puts"`
	Deletes int64 `json:"deletes"`
	// RankQueries counts the ranks of one train this handle ran and
	// RankBatches the ranks of several, whichever of RankQuery and
	// RankBatch (or of /v1/rank and /v1/rank/batch) they entered by: the
	// shared core counts by train count, failed ranks included.
	RankQueries int64 `json:"rank_queries"`
	RankBatches int64 `json:"rank_batches"`
	// RankTrace is the sum of every rank's trace, failed ranks included.
	RankTrace
	// RankPanics counts rank workers that panicked; each one failed its
	// own query ("store: rank worker panicked: …") and nothing else.
	RankPanics int64 `json:"rank_panics"`
	// CompressedSegments counts live FSST-compressed segments;
	// CompressedBytes is what their records occupy on disk and
	// RawBytes what the same records would occupy raw — the achieved
	// ratio is RawBytes/CompressedBytes.
	CompressedSegments int   `json:"compressed_segments"`
	CompressedBytes    int64 `json:"compressed_bytes"`
	RawBytes           int64 `json:"raw_bytes"`
}

// Stats returns a snapshot of the handle's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Backend:     s.backend.name(),
		Sketches:    s.cat.live,
		Compactions: s.compactions.Load(),
		DiskReads:   s.diskReads.Load(),
		Puts:        s.puts.Load(),
		Deletes:     s.deletes.Load(),
		RankQueries: s.rankQueries.Load(),
		RankBatches: s.rankBatches.Load(),
		RankTrace:   s.ranked,
		RankPanics:  s.rankPanics.Load(),
	}
	cs := s.cache.Stats()
	st.CacheBytes, st.CacheHits, st.CacheMisses, st.Evictions = cs.Used, cs.Hits, cs.Misses, cs.Evictions
	if fb, ok := s.backend.(*fsBackend); ok {
		for _, info := range fb.segmentInfos() {
			st.Segments++
			st.SegmentBytes += info.Bytes
			if info.Indexed {
				st.IndexedSegments++
				st.PostingBytes += info.IndexBytes
			}
			if info.Compressed {
				st.CompressedSegments++
				st.CompressedBytes += info.CompressedBytes
				st.RawBytes += info.RawBytes
			}
		}
		st.LiveBytes = s.cat.bytes
	}
	return st
}

// SegmentInfo describes one live segment file of an fs-backed store.
type SegmentInfo struct {
	// Seq is the segment's sequence number (its filename).
	Seq uint64
	// Compacted marks compaction output (vs WAL-order appends).
	Compacted bool
	// Sealed segments are immutable, indexed, and mmap'd; the one
	// unsealed segment (if any) is the active append target.
	Sealed bool
	// Bytes is the segment's current size and Records its record count
	// (live and dead alike).
	Bytes   int64
	Records int
	// LiveRecords and LiveBytes count the records the manifest still
	// references.
	LiveRecords int
	LiveBytes   int64
	// Indexed marks sealed segments carrying an inverted key index and
	// IndexBytes its section size; active and frozen segments report
	// false and are served by the full candidate walk.
	Indexed    bool
	IndexBytes int64
	// Compressed marks segments carrying a compression dict section.
	// CompressedBytes is the stored size of their records and RawBytes
	// the raw-equivalent size (both zero when the section fails to
	// parse — its records then fail their decodes rather than guess).
	Compressed      bool
	CompressedBytes int64
	RawBytes        int64
}

// Segments returns per-segment observability state, ordered by sequence
// number. The mem backend has none.
func (s *Store) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	fb, ok := s.backend.(*fsBackend)
	if !ok {
		return nil
	}
	infos := fb.segmentInfos()
	bySeq := make(map[uint64]*SegmentInfo, len(infos))
	for i := range infos {
		bySeq[infos[i].Seq] = &infos[i]
	}
	for _, m := range s.cat.merged() {
		if info, ok := bySeq[m.Segment]; ok {
			info.LiveRecords++
			info.LiveBytes += m.Bytes
		}
	}
	return infos
}

// RankedSketch is one result of a discovery query.
type RankedSketch struct {
	Name      string
	MI        float64
	Estimator mi.Estimator
	JoinSize  int
}

// RankOptions describes a discovery query — RankQuery's one train or
// RankBatch's many — from whichever boundary it entered by to the workers
// that run it: nothing re-packs it on the way. Probes and MinMI are per
// train, everything else applies to every train of the call.
type RankOptions struct {
	// Prefix restricts ranking to stored sketches whose name has this
	// prefix; empty ranks everything.
	Prefix string
	// MinJoinSize drops candidates whose sketch join has at most this
	// many samples (the paper's "JoinSize ≤ 100" confidence filter). The
	// join's own probe of the train's key hashes proves such a pair before
	// any estimator runs, and the pair is counted as pruned.
	MinJoinSize int
	// K is the neighbor parameter of the KSG-family estimators; 0 means
	// mi.DefaultK and a negative K is rejected.
	K int
	// TopK > 0 bounds each train's result to its K best candidates,
	// accumulated in one bounded heap per train; <= 0 returns every one.
	TopK int
	// Workers overrides the estimation fan-out; <= 0 means GOMAXPROCS.
	// Rankings are bit-identical at every worker count.
	Workers int
	// Probes, when non-nil, must be parallel to the trains; non-nil
	// entries are pre-compiled indexes (core.CompileTrainProbe on the same
	// sketch) reused instead of compiling. Long-running services cache
	// probes by train-sketch content so repeated queries skip compilation.
	Probes []*core.TrainProbe
	// NoIndex disables index-driven candidate selection: every
	// manifest-admitted candidate is loaded and its overlap cut per pair
	// by the probe, exactly as before segments carried inverted key
	// indexes. Rankings and pruned counts are identical either way — the
	// flag exists for differential tests and full-walk benchmarking.
	NoIndex bool
	// NoCascade disables the two-tier estimator cascade: every surviving
	// candidate pays the exact estimator, the pre-cascade reference
	// semantics. The cascade (active whenever TopK > 0) scores each pair
	// with the cheap binned tier first and skips the exact KSG-family
	// estimator when the cheap score plus the safety margin cannot reach
	// the K-th exact MI found so far; final rankings are identical as
	// long as the margin covers the cheap tier's underestimation (see
	// CascadeMargin), which the escape hatch and the differential tests
	// exist to check.
	NoCascade bool
	// CascadeMargin is the safety margin in nats added to the cheap
	// tier's score when deciding whether a candidate can still reach the
	// current K-th exact MI. Zero means DefaultCascadeMargin; a negative
	// value means no margin (trust the cheap ordering outright — only
	// sensible in experiments). Larger margins prune less and rescue
	// more; the default is calibrated (internal/exp, RunCascadeCalib)
	// so that exact−cheap residuals across the golden and synthetic
	// corpora stay within it.
	CascadeMargin float64
	// MinMI, when non-nil, must be parallel to the trains: train q's
	// result is the top TopK of the candidates whose exact MI is at least
	// MinMI[q]. The cascade's K-th-MI bound starts there, so a pair is
	// pruned only when cheap + margin puts it provably below the floor or
	// provably outside the local top K: the result is exact whatever the
	// floor, and cheaper the higher it is.
	MinMI []float64
	// Seed asks for a seed answer instead of the ranking: phase 1 runs
	// in full, then only each train's first TopK pairs in the cascade's
	// deterministic cheap-descending order are scored exactly and
	// returned, BatchQueryResult.SeedBound covering the rest. It is how a
	// cluster coordinator finds a global MinMI.
	Seed bool
}

// Resolve returns opt as a rank of n trains runs it: K 0 is mi.DefaultK,
// CascadeMargin 0 is DefaultCascadeMargin, a nil MinMI is n zero floors.
// It fails on what no catalog can make valid. Every rank resolves its
// options here, so zero means the default at every boundary; a caller
// that keys on the answer (the server's result cache) resolves first and
// digests the result, so that equal answers share a key. Resolving a
// resolved value changes nothing.
func (opt RankOptions) Resolve(n int) (RankOptions, error) {
	if opt.K < 0 {
		return opt, fmt.Errorf("store: rank needs a non-negative K (0 is the default), got %d", opt.K)
	}
	if opt.Probes != nil && len(opt.Probes) != n {
		return opt, fmt.Errorf("store: rank got %d probes for %d trains", len(opt.Probes), n)
	}
	if opt.MinMI != nil && len(opt.MinMI) != n {
		return opt, fmt.Errorf("store: rank got %d MinMI floors for %d trains", len(opt.MinMI), n)
	}
	if opt.K == 0 {
		opt.K = mi.DefaultK
	}
	if opt.CascadeMargin == 0 {
		opt.CascadeMargin = DefaultCascadeMargin
	}
	if opt.MinMI == nil {
		opt.MinMI = make([]float64, n)
	}
	return opt, nil
}

// RankQuery estimates MI between the train sketch and every stored
// candidate sketch, dropping candidates whose sketch join has at most
// opt.MinJoinSize samples, and returns the rest ordered by decreasing
// MI (bounded to the best opt.TopK when positive). It is RankBatch for
// one train (opt.Probes and opt.MinMI, when set, hold one element).
//
// Candidate selection never decodes excluded sketches: the manifest
// filters on prefix, hash seed, and role, and sealed segments' inverted
// key indexes then exclude candidates whose exact key-hash overlap with
// the train proves their join at or below MinJoinSize — selection work
// grows with matching candidates, not catalog size. Candidates in
// segments without an index (the active segment, frozen segments) are
// loaded and cut per pair by the probe instead; either way the pruned
// pairs are identical and counted in Stats.PrunedPairs. Prefix-ineligible
// sketches are silently ignored; prefix-matching sketches with a
// different seed or a train role are reported in the skipped list (they
// cannot be joined).
// A malformed candidate with duplicated key hashes fails the query only
// when a duplicate actually joins the train sketch; duplicates that
// match nothing cannot affect any result and are ranked normally. The
// query is compiled once (core.TrainProbe, reused from opt.Probes when
// set) and estimation fans out across opt.Workers workers, each owning a
// core.Scratch so the per-candidate hot path performs no steady-state
// allocations. On the fs backend, candidates are decoded in place out of
// the pinned segment mappings — no syscalls, no copies. Estimation stops
// early when ctx is cancelled; the result order is deterministic
// regardless of scheduling.
//
// The query runs against a snapshot of the manifest: candidates
// admitted by the snapshot whose sketch is concurrently overwritten
// with an incompatible one (different seed, train role) or deleted
// before the worker reads it are moved to the skipped list rather than
// failing the query or surfacing a half-visible entry — a Put or Delete
// racing an in-flight rank is safe from both sides, as is a concurrent
// compaction.
func (s *Store) RankQuery(ctx context.Context, train *core.Sketch, opt RankOptions) (ranked []RankedSketch, skipped []string, err error) {
	res, err := s.RankBatch(ctx, []*core.Sketch{train}, opt)
	if err != nil {
		return nil, nil, err
	}
	return res.Queries[0].Ranked, res.Skipped, nil
}

// byRank orders results as a ranking lists them: decreasing MI, ties by
// name.
func byRank(a, b RankedSketch) int {
	switch {
	case a.MI > b.MI:
		return -1
	case a.MI < b.MI:
		return 1
	}
	return cmp.Compare(a.Name, b.Name)
}

// rankHeap collects one train's exact results from every worker: the best
// k of them, in a bounded min-heap with the weakest (last under byRank) at
// the root so offer can displace it in O(log k), or all of them when k is
// not positive. bound is the cascade's lower bound on the train's final
// k-th exact MI, encoded as raiseBound describes: a MinMI floor, or the
// root once the heap holds k results — k candidates scored at least that,
// whichever workers scored them, so pruning against it never evicts a
// true top-k result.
type rankHeap struct {
	mu    sync.Mutex
	s     []RankedSketch
	bound atomic.Uint64
}

// offer reports whether the result entered the heap (displacing the
// weakest when full) — the signal the cascade's rescue counter needs. The
// lock is taken once per exact estimate, never per pair.
func (h *rankHeap) offer(r RankedSketch, k int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.s) < k || k <= 0 {
		h.s = append(h.s, r)
		if len(h.s) == k { // sorted weakest first, the slice is a heap
			slices.SortFunc(h.s, func(a, b RankedSketch) int { return byRank(b, a) })
			raiseBound(&h.bound, h.s[0].MI)
		}
		return true
	} else if byRank(r, h.s[0]) >= 0 {
		return false
	}
	s := h.s
	s[0] = r
	for i := 0; ; { // sift down
		j := 2*i + 1
		if j+1 < k && byRank(s[j+1], s[j]) > 0 {
			j++
		}
		if j >= k || byRank(s[j], s[i]) <= 0 {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	raiseBound(&h.bound, s[0].MI)
	return true
}

// Gen returns the store's mutation generation, which increments on
// every Put and Delete. Callers caching derived state (a content digest
// of a stored sketch, an encoded rank response) key it by (input, Gen)
// and revalidate when the generation moves. The read is lock-free: it
// sits on the warm path of every cached rank, where taking the store
// mutex would make cache hits contend with Put/Delete/Compact.
//
// Fencing contract: read Gen before taking the manifest snapshot the
// derived result is computed from. The snapshot then reflects the
// observed generation or a newer one — never an older one — so an
// entry keyed by that generation can serve a concurrent reader fresher
// data than it asked for (linearizable) but can never serve any reader
// data older than the generation it observed.
func (s *Store) Gen() uint64 {
	return s.gen.Load()
}

// Len returns the number of stored sketches.
func (s *Store) Len() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cat.live, s.closedErr() // Close empties the catalog
}

// Dir returns the store's root directory ("" for a mem-backed store).
func (s *Store) Dir() string { return s.dir }

// Backend returns the storage engine name ("fs" or "mem").
func (s *Store) Backend() string { return s.backend.name() }

// autoCompact is the background compaction loop: every interval it
// measures the dead fraction of segment bytes and compacts past the
// threshold. Close stops it.
func (s *Store) autoCompact(every time.Duration, minGarbage float64) {
	defer s.compactLoop.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-s.compactStop:
			return
		case <-ticker.C:
		}
		st := s.Stats()
		if st.SegmentBytes <= 0 {
			continue
		}
		garbage := float64(st.SegmentBytes-st.LiveBytes) / float64(st.SegmentBytes)
		if garbage < minGarbage {
			continue
		}
		s.Compact(context.Background()) // best effort; next tick retries
	}
}
