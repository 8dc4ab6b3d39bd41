package store

import (
	"misketch/internal/cache"
	"misketch/internal/core"
)

// sketchCache is the byte-bounded LRU of decoded sketches (a
// cache.LRU keyed by sketch name, charged sketchBytes per entry),
// replacing the unbounded map a small store could get away with: a
// catalog of millions of sketches must not grow memory with every
// load. Store still takes its own mutex around every cache operation:
// that lock, not the cache's, is what orders a lookup against the
// manifest check beside it and a compaction's purge against its unmap.
type sketchCache = cache.LRU[string, cachedSketch]

// cachedSketch is one decode Store.read admitted — a zero-copy view of a
// raw record in a raw segment or an owned decode — tagged with the
// segment it borrows memory from (0 = the sketch owns its memory, as
// every decode of a compressed segment's record does), so a compaction
// retiring segments can purge the views that alias them before the
// mappings go away, and with the generation its version was current at
// (the loading read's). Put admits nothing, so no entry is a caller's.
type cachedSketch struct {
	sk       *core.Sketch
	seg, gen uint64
}

// cacheLocked admits sk, name's version current at gen, charged its size.
func (s *Store) cacheLocked(name string, sk *core.Sketch, seg, gen uint64) {
	s.cache.Add(name, cachedSketch{sk, seg, gen}, sketchBytes(sk))
}

// sketchBytes is what a decoded sketch holds (or, for a borrowed view,
// the mapped bytes it keeps hot): the array payloads, string headers and
// string bytes — a compressed decode's once per distinct value, as it
// interns them — and fixed struct overhead, so the budget means "sketch
// bytes this cache keeps reachable". It allocates nothing and runs under
// s.mu.
func sketchBytes(sk *core.Sketch) int64 {
	n := int64(96) // struct and slice headers
	n += 4 * int64(len(sk.KeyHashes))
	// Numeric sketches memoize their value-order array (NumValOrder,
	// i32 per entry) the first time a ranking query sorts them; cached
	// sketches always end up paying it, so charge it up front rather
	// than undercount every numeric entry by a third.
	n += (8 + 4) * int64(len(sk.Nums))
	return n + 16*int64(len(sk.Strs)) + sk.StrBytes()
}
