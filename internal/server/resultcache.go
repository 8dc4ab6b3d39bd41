package server

// The rank result cache: a byte-bounded LRU of fully-encoded rank and
// batch responses, fenced by the store's mutation generation so a stale
// answer is structurally impossible, with a singleflight layer so N
// concurrent identical misses share one rank computation. The LRU and
// the flight table are internal/cache's; this file holds what is the
// server's own: what a key is, what an entry costs, and the ETag.
//
// Keying. An entry is keyed by (canonical request digest, store
// generation). The canonical digest is computed over the *resolved*
// request — train sketch content digest (not its name or its base64
// spelling), min-join with the default applied, K with the default
// applied, workers after clamping to the server bound, the cascade
// margin with its zero-means-default and negative-means-disabled
// conventions collapsed — so two requests collide exactly when the
// server would compute bit-identical rankings for both, and nothing
// else. The generation is read *before* the ranking's manifest
// snapshot: the snapshot then reflects that generation or a newer one,
// so an entry can serve a concurrent reader fresher data than it asked
// for (linearizable) but never older data, and any Put or Delete that
// completes before a query begins moves Gen and misses every older
// entry. Invalidation is therefore free: stale entries become
// unreachable the moment the generation moves and age out of the LRU.
//
// Singleflight. A miss enters a per-key flight. The first caller (the
// leader) admits through the weighted semaphore and computes the
// ranking; every concurrent identical miss joins as a waiter and
// receives the leader's encoded response — or its error — without
// holding semaphore capacity. The flight's computation context is
// refcounted across all participants: it is cancelled only when every
// joined request has gone away, so a leader whose client disconnects
// does not poison the waiters, while a flight nobody wants anymore
// aborts and frees its semaphore slots.
//
// ETags. Every 200 rank/batch response carries a strong ETag derived
// from (process epoch, canonical digest, generation). The epoch is
// random per server start: a restarted shard resets its generation
// counter, and without the epoch a client (or cluster coordinator)
// holding an ETag from the previous process could revalidate against a
// different catalog that happens to share the generation number. The
// ETag is computable before ranking, so If-None-Match revalidation
// costs no estimation and no semaphore admission even when the result
// cache is disabled.

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"misketch/internal/mi"
	"misketch/internal/store"
)

// probeDigest identifies a train sketch by the SHA-256 of its serialized
// bytes. Content addressing (rather than a client-supplied name) makes
// the probe cache safe by construction: two sketches share a compiled
// probe exactly when their bytes are identical, so an overwritten stored
// sketch or a re-uploaded query can never be served a stale index.
type probeDigest [sha256.Size]byte

// cacheKey identifies one cacheable response: the canonical request
// digest plus the store generation it was computed against. It keys
// both the result LRU (whose values are the encoded 200 bodies) and the
// flight table.
type cacheKey struct {
	digest [sha256.Size]byte
	gen    uint64
}

// cacheEntryOverhead approximates the bookkeeping bytes a cached
// response costs beyond its body and ETag: key, list element, map
// bucket share.
const cacheEntryOverhead = 160

// --- canonical request digests -------------------------------------

// rankParams is a rank request with every default resolved and every
// equivalence collapsed — the exact inputs the ranking depends on.
// Two requests produce bit-identical rankings iff their rankParams
// (plus train content digests) are equal.
type rankParams struct {
	prefix    string
	minJoin   int
	k         int
	top       int
	workers   int
	noCascade bool
	margin    float64
	// seed and floors (one per train) are the handler's to set.
	seed   bool
	floors []float64
}

// resolveRankParams collapses a decoded rank request's shared knobs to
// canonical form: min_join nil means the default confidence filter,
// k 0 means the estimator default, workers is clamped to the server
// bound, cascade margin 0 means the calibrated default and every
// negative value means "no margin" identically.
func resolveRankParams(prefix string, minJoin *int, k, top, workers int, noCascade bool, margin float64, maxWorkers int) rankParams {
	p := rankParams{prefix: prefix, top: top, noCascade: noCascade}
	p.minJoin = defaultMinJoin
	if minJoin != nil {
		p.minJoin = *minJoin
	}
	p.k = k
	if p.k == 0 {
		p.k = mi.DefaultK
	}
	p.workers = workers
	if p.workers <= 0 || p.workers > maxWorkers {
		p.workers = maxWorkers
	}
	switch {
	case margin == 0:
		p.margin = store.DefaultCascadeMargin
	case margin < 0:
		p.margin = -1
	default:
		p.margin = margin
	}
	return p
}

func (p rankParams) hashInto(h *digestWriter) {
	h.str(p.prefix)
	h.int64(int64(p.minJoin))
	h.int64(int64(p.k))
	h.int64(int64(p.top))
	h.int64(int64(p.workers))
	h.bool(p.noCascade)
	h.float(p.margin)
	h.bool(p.seed)
	h.int64(int64(len(p.floors)))
	for _, f := range p.floors {
		h.float(f)
	}
}

// canonicalRankDigest is the canonical digest of a single rank query:
// the train sketch's content digest plus the resolved shared knobs.
func canonicalRankDigest(train probeDigest, p rankParams) [sha256.Size]byte {
	h := newDigestWriter("rank")
	h.bytes(train[:])
	p.hashInto(h)
	return h.sum()
}

// canonicalBatchDigest is the canonical digest of a batch rank query:
// the ordered (response name, train content digest) pairs plus the
// resolved shared knobs. Order matters — the response lists queries in
// request order, so a reordered batch is a different request.
func canonicalBatchDigest(names []string, trains []probeDigest, p rankParams) [sha256.Size]byte {
	h := newDigestWriter("batch")
	h.int64(int64(len(names)))
	for i := range names {
		h.str(names[i])
		h.bytes(trains[i][:])
	}
	p.hashInto(h)
	return h.sum()
}

// digestWriter is a length-prefixed sha256 builder: every field is
// written with its length (or a fixed width), so no two distinct field
// sequences can collide by concatenation.
type digestWriter struct{ h hash.Hash }

func newDigestWriter(tag string) *digestWriter {
	w := &digestWriter{h: sha256.New()}
	w.str(tag)
	return w
}

func (w *digestWriter) bytes(b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	w.h.Write(n[:])
	w.h.Write(b)
}
func (w *digestWriter) str(s string) { w.bytes([]byte(s)) }
func (w *digestWriter) int64(v int64) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(v))
	w.h.Write(n[:])
}
func (w *digestWriter) bool(v bool) {
	if v {
		w.int64(1)
	} else {
		w.int64(0)
	}
}
func (w *digestWriter) float(v float64) { w.int64(int64(math.Float64bits(v))) }
func (w *digestWriter) sum() [sha256.Size]byte {
	var out [sha256.Size]byte
	copy(out[:], w.h.Sum(nil))
	return out
}

// --- ETags ----------------------------------------------------------

// newEpoch draws the server's ETag epoch: 8 random bytes per process
// start, so ETags from a previous incarnation of this address can
// never validate against this one even if the generation counters
// coincide.
func newEpoch() [8]byte {
	var e [8]byte
	if _, err := rand.Read(e[:]); err != nil {
		// Entropy exhaustion is effectively fatal elsewhere; a fixed
		// epoch only costs cross-restart revalidation correctness, so
		// fall back to a process-unique-ish constant rather than dying.
		copy(e[:], "misketch")
	}
	return e
}

// etagFor derives the strong ETag for (epoch, canonical digest,
// generation): 16 hex bytes of a second-preimage-resistant hash,
// quoted per RFC 9110.
func etagFor(epoch [8]byte, digest [sha256.Size]byte, gen uint64) string {
	h := sha256.New()
	h.Write(epoch[:])
	h.Write(digest[:])
	var g [8]byte
	binary.LittleEndian.PutUint64(g[:], gen)
	h.Write(g[:])
	sum := h.Sum(nil)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

var errCoalescedCancel = fmt.Errorf("client cancelled while coalesced behind an identical in-flight query")
