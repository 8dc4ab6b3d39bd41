package misketch

import (
	"io"
	"math/rand"
	"os"

	"misketch/internal/core"
	"misketch/internal/mi"
	"misketch/internal/store"
	"misketch/internal/table"
)

// This file exposes the system-level features around the core estimate
// pipeline: streaming sketch construction, sketch persistence, the
// on-disk discovery store, composite join keys, and confidence intervals.

// StreamBuilder builds a sketch from a stream of (key, value) rows in one
// pass without materializing the table — the ingestion-time mode for
// production pipelines. PRISK is not streamable.
type StreamBuilder = core.StreamBuilder

// Role distinguishes the two join sides when streaming.
type Role = core.Role

// The two sketch roles.
const (
	RoleTrain     = core.RoleTrain
	RoleCandidate = core.RoleCandidate
)

// NewStreamBuilder returns a one-pass sketch builder; numeric selects the
// value kind. Feed rows with AddNum/AddStr and call Sketch to snapshot.
func NewStreamBuilder(role Role, numeric bool, opt Options) (*StreamBuilder, error) {
	return core.NewStreamBuilder(role, numeric, normalizeOptions(opt))
}

// WriteSketch serializes a sketch to w in the versioned binary format.
func WriteSketch(w io.Writer, s *Sketch) error {
	_, err := s.WriteTo(w)
	return err
}

// ReadSketch deserializes a sketch written by WriteSketch.
func ReadSketch(r io.Reader) (*Sketch, error) {
	return core.ReadSketch(r)
}

// SaveSketch writes a sketch to a file.
func SaveSketch(path string, s *Sketch) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := s.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadSketch reads a sketch from a file.
func LoadSketch(path string) (*Sketch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadSketch(f)
}

// Store is a manifest-indexed catalog of persisted sketches serving
// discovery queries; see OpenStore. It packs sketches into append-only,
// mmap-backed segment files — ranking decodes candidates in place out of
// the mappings with zero per-candidate syscalls or copies, mutations
// append fsynced records replayed on crash, and Compact (or the
// background loop enabled by OpenStoreOptions.CompactEvery) folds
// overwrites and deletes into fresh segments. A diskless user opens a
// store on a temporary directory. Ranking filters candidates on the
// manifest alone (no record decodes for excluded candidates), supports
// context cancellation, and bounds results to the top K with one heap
// per train that every worker shares (Store.RankQuery).
type Store = store.Store

// BackendMem is the OpenStoreOptions.Backend value that opens a store on
// a private temporary directory, ignoring the directory argument; Close
// removes it.
//
// Deprecated: open the store on a temporary directory.
const BackendMem = store.BackendMem

// SegmentInfo describes one live segment file of a store; see
// Store.Segments.
type SegmentInfo = store.SegmentInfo

// CompactStats reports one Store.Compact pass: segments and bytes
// before/after, live records copied, dead bytes reclaimed.
type CompactStats = store.CompactStats

// RankedSketch is one result of a Store discovery query.
type RankedSketch = store.RankedSketch

// RankOptions describes a Store discovery query, of one train
// (Store.RankQuery) or of many in one corpus pass (RankBatch): name
// prefix, min join size, neighbor parameter (0 is DefaultK), top-K bound,
// worker fan-out (0 picks a default from GOMAXPROCS and the candidate
// count), the two-tier estimator cascade (on by default for top-K
// queries; NoCascade forces the exact tier everywhere, CascadeMargin
// overrides the calibrated safety margin), and, per train, optional
// result floors.
type RankOptions = store.RankOptions

// DefaultCascadeMargin is the calibrated safety margin, in nats, the
// ranking cascade adds to its cheap-tier score when deciding whether a
// candidate could still reach the running top-K; see
// RankOptions.CascadeMargin.
const DefaultCascadeMargin = store.DefaultCascadeMargin

// OpenStoreOptions tunes a store handle: CacheBytes bounds the
// decoded-sketch LRU cache (zero means the 64 MiB default, negative
// disables caching), SegmentBytes sets the segment roll threshold, and
// CompactEvery starts the background compaction loop, which compacts once
// 30% of segment bytes are dead. Compression makes compaction write
// FSST-compressed segments (categorical values packed against a
// per-segment symbol table, key hashes dictionary-coded) — rankings stay
// bit-identical, raw and compressed segments mix freely, and existing
// segments compress at their next compaction (`store compact -compress`
// backfills in one pass). Backend is deprecated (see BackendMem).
type OpenStoreOptions = store.OpenOptions

// SketchMeta is one manifest record: the per-sketch metadata (seed,
// role, method, value kind, sizes) discovery queries filter on without
// touching sketch bytes, plus the packed record's segment location.
type SketchMeta = store.Meta

// ErrNotFound is the sentinel Store.Get and Store.Delete wrap when no
// sketch with the requested name exists — test with errors.Is. A load
// failure that is NOT ErrNotFound (a CRC mismatch, an I/O error) means
// the record exists but could not be read; callers classifying errors
// (the HTTP layer's 404-vs-500 split) must not treat it as a miss.
var ErrNotFound = store.ErrNotFound

// StoreStats are observability counters for a store handle: segment count/bytes/liveness, compaction passes, cache
// hits/misses/evictions, bytes and sketches cached against its budget,
// record decodes, the ranking cascade's tier counters (pairs settled by
// the cheap tier alone, pairs that paid the exact tier, margin/guard
// rescues), and the compression counters (compressed segment count,
// stored vs raw-equivalent record bytes — the achieved ratio is
// RawBytes/CompressedBytes).
type StoreStats = store.Stats

// OpenStore opens (creating if necessary) a sketch store rooted at dir
// with default options. Typical usage: at ingestion time, SketchCandidate
// every column of every dataset and Put it; at query time, SketchTrain the
// user's table and RankQuery against the store. Close persists the manifest
// and gives the store's memory, mappings and files back; after it every call
// but Stats, Segments, Gen and Dir fails with fs.ErrClosed.
func OpenStore(dir string) (*Store, error) {
	return store.Open(dir)
}

// OpenStoreWithOptions is OpenStore with explicit cache, segment and
// compaction options.
func OpenStoreWithOptions(dir string, opt OpenStoreOptions) (*Store, error) {
	return store.OpenWithOptions(dir, opt)
}

// WithCompositeKey returns a copy of t extended with a string key column
// concatenating the given columns — multi-attribute join keys from the
// paper's problem statement. Sketch the result on the new column:
//
//	t2, _ := misketch.WithCompositeKey(t, "_key", []string{"date", "zip"})
//	s, _ := misketch.SketchTrain(t2, "_key", "target", misketch.Options{})
func WithCompositeKey(t *Table, name string, cols []string) (*Table, error) {
	return table.WithCompositeKey(t, name, cols)
}

// Interval is a two-sided confidence interval around an MI estimate.
type Interval = mi.Interval

// EstimateMIWithCI is EstimateMI plus a subsampling confidence interval
// at the given level (e.g. 0.95), computed from reps half-size
// subsamples of the sketch join. Width shrinks at roughly a square-root
// rate in the sketch join size, per the error bounds the paper cites.
func EstimateMIWithCI(train, cand *Sketch, reps int, level float64, seed int64) (Result, Interval, error) {
	js, err := core.Join(train, cand)
	if err != nil {
		return Result{}, Interval{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	res, ci := mi.EstimateWithCI(js.Y, js.X, DefaultK, reps, level, rng)
	return res, ci, nil
}
