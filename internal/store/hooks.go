package store

import "os"

// Test hooks. Production builds never set these; the crash-safety and
// open-cost regression tests use them to (a) simulate a process dying at
// a precise point inside a mutation — the hook returns an error, the
// operation aborts exactly where a crash would have left it, and the
// test reopens the directory — and (b) count file opens, pinning the
// invariant that opening an intact store touches O(segment files), never
// O(sketches), and that verifying it opens none.

// testHookCrash, when non-nil, is consulted at named crash points; a
// non-nil return aborts the surrounding operation at that point. Points:
//
//	put.appended      — sketch record durable, store index not yet updated
//	flush.written     — manifest temp file written+synced, not yet renamed
//	flush.renamed     — manifest renamed into place, directory not synced
//	seal.keyindex     — record index bytes written, key index section and
//	                    footer not yet; the segment reopens unsealed and
//	                    is frozen-replayed, losing only the index
//	compact.sealed    — compacted segment durable, manifest still on sources
//	compact.swapped   — manifest references the compacted segment, source
//	                    segments not yet retired/unlinked
var testHookCrash func(point string) error

func crashPoint(p string) error {
	if testHookCrash != nil {
		return testHookCrash(p)
	}
	return nil
}

// testHookRankWork, when non-nil, runs on a rank worker's goroutine before
// each index it claims (a visit position in phase 1, a pair in phase 2):
// a test panics or cancels from it.
var testHookRankWork func(i int)

// testHookNoMemo, when non-nil, names the stores whose catalog views keep
// no plan (rankplan.go): FuzzRankMemos's memo-off reference.
var testHookNoMemo func(s *Store) bool

// testHookFileOpen, when non-nil, observes every file the store layer
// opens (segment and manifest reads — not temp-file creation).
var testHookFileOpen func(path string)

// openFile wraps os.OpenFile with the open-count hook.
func openFile(path string, flag int, perm os.FileMode) (*os.File, error) {
	if testHookFileOpen != nil {
		testHookFileOpen(path)
	}
	return os.OpenFile(path, flag, perm)
}
