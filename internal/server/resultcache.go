package server

// The rank result cache: a byte-bounded LRU of fully-encoded rank and
// batch responses, fenced by the store's mutation generation so a stale
// answer is structurally impossible, with a singleflight layer so N
// concurrent identical misses share one rank computation. The LRU and
// the flight table are internal/cache's; this file holds what is the
// server's own: what a key is, what an entry costs, and the ETag. It is
// the system's one result cache: a cluster coordinator keeps none, and
// each shard's serves and coalesces the coordinator's repeated scatters.
//
// Keying. An entry is keyed by (canonical request digest, store
// generation). The canonical digest is computed over the *resolved*
// request — train sketch content digests (not their names or base64
// spelling) and the store.RankOptions the store will run, min-join and K
// with their defaults applied, minus what cannot move an answer (the
// worker count: rankings are bit-identical at every fan-out) — so two
// requests collide exactly when the server would compute bit-identical
// answers for both, and nothing else. The generation is read *before* the
// ranking's manifest snapshot: the snapshot then reflects that generation
// or a newer one, so an entry can serve a concurrent reader fresher data
// than it asked
// for (linearizable) but never older data, and any Put or Delete that
// completes before a query begins moves Gen and misses every older
// entry. Invalidation is therefore free: stale entries become
// unreachable the moment the generation moves, and the first answer
// cached under a newer generation drops them all, so they hold no
// memory while a busy write rate piles up generations. An answer
// computed under an older generation than the newest cached one is
// served but not kept.
//
// Admission on second sight: a digest's first answer leaves only a
// marker, keyed by the digest alone so it survives every generation, and
// answers are kept from the digest's second miss on.
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
// counter, and without the epoch a client holding an ETag from the
// previous process could revalidate against a different catalog that
// happens to share the generation number. The
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

	"misketch/internal/store"
)

// trainDigest identifies a train sketch by the SHA-256 of its serialized
// bytes. Content addressing (rather than a client-supplied name) makes
// the result cache safe by construction: two requests share an answer
// only when their trains' bytes are identical, so an overwritten stored
// sketch or a re-uploaded query can never be served a stale one.
type trainDigest [sha256.Size]byte

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

// seenGen is a marker's generation: no store reaches it, so no answer's
// lookup finds a marker and no sweep of older generations drops one.
const seenGen = math.MaxUint64

// cacheResult keeps an encoded answer under key unless a newer
// generation's answer is already cached; the first answer of a newer
// generation drops every older one. An Add that races a newer sweep
// deletes itself, so no entry outlives the generation that superseded it.
func (s *Server) cacheResult(key cacheKey, body []byte, cost int64) {
	if s.results == nil || key.gen < s.resultGen.Load() {
		return
	}
	s.results.Add(key, body, cost)
	for {
		switch newest := s.resultGen.Load(); {
		case key.gen == newest:
			return
		case key.gen < newest:
			s.results.Delete(key)
			return
		case s.resultGen.CompareAndSwap(newest, key.gen):
			s.results.DeleteFunc(func(k cacheKey, _ []byte) bool { return k.gen < key.gen })
			return
		}
	}
}

// --- canonical request digests -------------------------------------

// canonicalDigest is the canonical digest of a rank query of either
// endpoint: the endpoint's tag, the ordered (response name, train content
// digest) pairs and the resolved options. Order matters — the response
// lists queries in request order, so a reordered batch is a different
// request. Every RankOptions field is written but the one that cannot
// move an answer, Workers; a test flips each field to hold a new one to
// that.
func canonicalDigest(tag string, names []string, trains []trainDigest, opt store.RankOptions) [sha256.Size]byte {
	h := newDigestWriter(tag)
	h.int64(int64(len(names)))
	for i := range names {
		h.str(names[i])
		h.bytes(trains[i][:])
	}
	h.str(opt.Prefix)
	h.int64(int64(opt.MinJoinSize))
	h.int64(int64(opt.K))
	h.int64(int64(opt.TopK))
	h.bool(opt.NoIndex)
	h.bool(opt.NoCascade)
	h.float(opt.CascadeMargin)
	h.bool(opt.Seed)
	h.int64(int64(len(opt.MinMI)))
	for _, f := range opt.MinMI {
		h.float(f)
	}
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
	w.int64(int64(len(b)))
	w.h.Write(b)
}
func (w *digestWriter) str(s string) { w.bytes([]byte(s)) }
func (w *digestWriter) int64(v int64) {
	w.h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
}
func (w *digestWriter) bool(v bool) {
	if v {
		w.int64(1)
	} else {
		w.int64(0)
	}
}
func (w *digestWriter) float(v float64)        { w.int64(int64(math.Float64bits(v))) }
func (w *digestWriter) sum() [sha256.Size]byte { return [sha256.Size]byte(w.h.Sum(nil)) }

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
	h.Write(binary.LittleEndian.AppendUint64(nil, gen))
	sum := h.Sum(nil)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

var errCoalescedCancel = fmt.Errorf("client cancelled while coalesced behind an identical in-flight query")
