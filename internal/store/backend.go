package store

// The storage backend abstraction. The Store keeps the catalog index
// (the catalog table, manifest.go), the decoded-sketch cache, and the ranking machinery;
// a backend owns the bytes. Two implementations exist:
//
//   - fs (fsbackend.go): segment-packed, mmap-backed durable storage —
//     the production engine.
//   - mem (below): everything in process memory, nothing on disk — the
//     backend tests and ephemeral services run on.
//
// The interface is deliberately narrow: append-style mutation, one load
// (which may borrow a pinned segment's memory), pinning for borrowed
// lifetimes, and index persistence. Compaction and verification are
// fs-specific and reached by type assertion, not interface bloat — a mem
// store has nothing to compact or verify. Repair is not a backend operation at all: opening a
// store (openFSBackend) is the one place it happens, and a Store keeps
// the backend it opened with until it is dropped.

import (
	"fmt"
	"sync"

	"misketch/internal/core"
)

// Backend names accepted by OpenOptions.Backend.
const (
	BackendFS  = "fs"
	BackendMem = "mem"
)

// backend stores and retrieves sketch bytes for a Store.
type backend interface {
	// name reports the backend kind ("fs" or "mem").
	name() string
	// put durably stores the sketch under name and returns its location
	// (zero for backends without one).
	put(name string, sk *core.Sketch) (seg uint64, off, length int64, err error)
	// tombstone durably records the deletion of name, returning the
	// record's segment and end offset (zero for backends without one).
	tombstone(name string) (seg uint64, end int64, err error)
	// load decodes m's record. With borrow the sketch may alias backend
	// memory and is valid only while its segment is pinned; tag is that
	// segment, or 0 when the sketch owns its memory, as it always does
	// without borrow (and then the fs backend checks the record CRC).
	load(m Meta, borrow bool) (sk *core.Sketch, tag uint64, err error)
	// pin takes read pins on the given segments; the returned func
	// releases them. Both are cheap; rank queries pin once per query.
	pin(segs map[uint64]struct{}) func()
	// persist writes the durable catalog index (the fs manifest); the
	// caller (Store) serializes calls and passes a consistent snapshot,
	// the catalog table in name order.
	// covered caps, per segment, the byte offset the snapshot accounts
	// for: a Put or Delete whose record is durable but whose index entry
	// is not yet in metas must not be covered, or a crash after this
	// persist would skip it on replay and lose an acked mutation. A nil
	// map means the snapshot is complete (single-threaded open paths).
	persist(metas []Meta, covered map[uint64]int64) error
	// close seals what the next open needs and gives back memory, mappings
	// and files, each once its pins drain; a later load finds nothing.
	close() error
}

// memBackend keeps every sketch in process memory: zero durability,
// zero syscalls. Servers and tests that want a diskless store run on it
// (OpenOptions.Backend = "mem"). By design it stores the sketch a Put
// passes and serves that very pointer, so a caller must not modify it.
type memBackend struct {
	mu       sync.Mutex
	sketches map[string]*core.Sketch
}

func newMemBackend() *memBackend {
	return &memBackend{sketches: make(map[string]*core.Sketch)}
}

func (b *memBackend) name() string { return BackendMem }

func (b *memBackend) put(name string, sk *core.Sketch) (uint64, int64, int64, error) {
	b.mu.Lock()
	b.sketches[name] = sk
	b.mu.Unlock()
	return 0, 0, sketchBytes(sk), nil
}

func (b *memBackend) tombstone(name string) (uint64, int64, error) {
	b.mu.Lock()
	delete(b.sketches, name)
	b.mu.Unlock()
	return 0, 0, nil
}

func (b *memBackend) load(m Meta, _ bool) (*core.Sketch, uint64, error) {
	b.mu.Lock()
	sk, ok := b.sketches[m.Name]
	b.mu.Unlock()
	if !ok {
		// A Delete raced the caller's manifest snapshot: the name is
		// genuinely gone, not corrupt, so the miss carries the sentinel.
		return nil, 0, fmt.Errorf("store: no sketch %q: %w", m.Name, ErrNotFound)
	}
	return sk, 0, nil
}

func (b *memBackend) pin(map[uint64]struct{}) func() { return func() {} }

func (b *memBackend) persist([]Meta, map[uint64]int64) error { return nil }

func (b *memBackend) close() error {
	b.mu.Lock()
	b.sketches = nil
	b.mu.Unlock()
	return nil
}
