package cluster

// The coordinator's result cache, built entirely on the shard ETag
// protocol — no generation state crosses the wire beyond what the ETag
// already encodes.
//
// Per-shard entries. Each (request digest, shard) pair remembers the
// shard's last ETag and the encoded body of its round-1 answer. On the
// next identical request the coordinator scatters with If-None-Match:
// an unchanged shard answers 304 with no body, and the cached one feeds
// the merge — no ranking, no body transfer. A shard whose catalog moved
// (or that restarted — its ETag epoch is new) answers 200 with a fresh
// body, which replaces the entry. A stale entry is therefore harmless
// by construction: its only power is an If-None-Match header, and a
// shard that cannot revalidate it sends full data.
//
// Merged entries. When every shard revalidated (all 304) and the
// merged response for exactly that set of shard ETags is cached, the
// coordinator replays its encoded bytes — skipping the decodes, round
// 2, the merge sort and the re-encode. The coordinator's own ETag is
// derived from the request digest plus the per-shard ETags, so it is
// pure content: it survives coordinator restarts and changes exactly
// when some shard's answer changes. Clients revalidate with
// If-None-Match against the coordinator the same way the coordinator
// revalidates against shards.
//
// Partial (degraded) responses are never cached and never carry an
// ETag: a lost shard means the answer is not a pure function of the
// request, and caching it would let a transient outage echo after
// recovery. Per-shard 200s inside a degraded scatter ARE cached —
// each one is authoritative for its own shard regardless of what the
// others did.
//
// Admission on second sight. A digest's first scatter leaves a marker
// (no body, ccEntryOverhead bytes) and caches nothing; bodies are kept
// from the second identical request on. Most queries never repeat, and a
// shard answer each plus the merge grew the cache, and the process, with
// every query served. The price is one extra full scatter per distinct
// repeated query, once: the marker is keyed by digest alone, so it
// survives the shards' mutations.
//
// The LRU over all three kinds of entry and the singleflight table that
// coalesces identical concurrent requests (keyed by request digest,
// refcounted so the scatter is cancelled only when every coalesced
// client has gone away) are internal/cache's. Both are nil when
// Options.ResultCacheBytes disables them; the ETag protocol (emitting
// one, honoring If-None-Match from clients) does not depend on either.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// ccKey identifies one cache entry: a per-shard answer (shard >= 0) or
// the merged coordinator answer (shard == mergedShard) for a request.
type ccKey struct {
	shard  int
	digest [sha256.Size]byte
}

// mergedShard and seenShard are the ccKey.shard sentinels for merged
// entries and first-sight markers.
const (
	mergedShard = -1
	seenShard   = -2
)

// ccEntry is one cached answer: a shard's round-1 body under the shard's
// ETag, or the merged body under the coordinator's — which hashes the
// shard ETags the merge consumed, so an equal ETag is what gates replay.
type ccEntry struct {
	etag string
	body []byte
}

// ccEntryOverhead approximates per-entry bookkeeping bytes.
const ccEntryOverhead = 200

// remember caches body under key, charged what the entry holds: an
// exact-size copy, without the growth slack of a body read off the wire.
func (c *Coordinator) remember(key ccKey, etag string, body []byte) {
	if c.results != nil {
		c.results.Add(key, &ccEntry{etag: etag, body: bytes.Clone(body)}, int64(len(body)+len(etag))+ccEntryOverhead)
	}
}

// admits reports whether digest was requested before, so that this
// request's answers may be remembered, and marks it seen.
func (c *Coordinator) admits(digest [sha256.Size]byte) bool {
	return c.results.SeenBefore(ccKey{shard: seenShard, digest: digest}, &ccEntry{}, ccEntryOverhead)
}

// requestDigest keys a scattered request: a tag separating the
// endpoints plus the canonical (decoded and re-marshaled) body, so
// JSON field order and whitespace do not split the cache.
func requestDigest(tag string, canonicalBody []byte) [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(tag)))
	h.Write(n[:])
	h.Write([]byte(tag))
	h.Write(canonicalBody)
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// coordEtagFor derives the coordinator's ETag for a fully-answered
// request: a content hash of the request digest and every shard's
// ETag, in shard order. No epoch is needed — each shard ETag already
// carries its process epoch, so any shard restart or mutation changes
// the coordinator ETag too.
func coordEtagFor(digest [sha256.Size]byte, shardTags []string) string {
	h := sha256.New()
	h.Write([]byte("cluster"))
	h.Write(digest[:])
	var n [8]byte
	for _, tag := range shardTags {
		binary.LittleEndian.PutUint64(n[:], uint64(len(tag)))
		h.Write(n[:])
		h.Write([]byte(tag))
	}
	sum := h.Sum(nil)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}
