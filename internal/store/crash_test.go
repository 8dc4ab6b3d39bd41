package store

// Kill-point crash-safety harness. Each scenario drives a store through
// acked mutations, injects a "crash" at a named point inside a later
// operation (the hook aborts the operation exactly where a real crash
// would have left the files), abandons the handle, reopens the
// directory, and asserts that every acked Put is present and every
// acked Delete stayed deleted — across the windows between segment
// append, manifest swap, and compaction's seal/swap/retire steps.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"misketch/internal/core"
)

var errInjectedCrash = errors.New("injected crash")

// crashAt arms the crash hook for one named point and returns a
// disarm func; the n-th hit (1-based) fires.
func crashAt(t *testing.T, point string, n int) func() {
	t.Helper()
	hits := 0
	testHookCrash = func(p string) error {
		if p == point {
			hits++
			if hits == n {
				return fmt.Errorf("%w at %s", errInjectedCrash, p)
			}
		}
		return nil
	}
	return func() { testHookCrash = nil }
}

// expectState reopens dir and asserts exactly the given sketches are
// present and readable with the right entry counts.
func expectState(t *testing.T, dir string, want map[string]*core.Sketch) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(want) {
		t.Fatalf("recovered %d sketches (%v), want %d", len(names), names, len(want))
	}
	for name, sk := range want {
		got, err := st.Get(name)
		if err != nil {
			t.Fatalf("acked Put %q lost: %v", name, err)
		}
		if got.Len() != sk.Len() || got.Seed != sk.Seed {
			t.Errorf("%q recovered wrong sketch", name)
		}
	}
	// The recovered store's segments must verify, and a second reopen of
	// what the first one healed and persisted must agree with it.
	if err := st.Verify(); err != nil {
		t.Fatalf("recovered store fails Verify: %v", err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("second reopen after crash: %v", err)
	}
	if n, _ := st2.Len(); n != len(want) {
		t.Errorf("second reopen disagrees: %d sketches, want %d", n, len(want))
	}
}

func crashSketch(t *testing.T, g int) *core.Sketch {
	t.Helper()
	return buildSketch(t, core.RoleCandidate, 0, func(x int) float64 { return float64((x + g) % 7) })
}

// TestCrashBetweenAppendAndManifest kills the process right after a
// Put's record is durable but before any index update: the acked Put
// must survive via segment-tail replay.
func TestCrashBetweenAppendAndManifest(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*core.Sketch{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("pre%d", i)
		sk := crashSketch(t, i)
		if err := st.Put(name, sk); err != nil {
			t.Fatal(err)
		}
		want[name] = sk
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	// Two more acked Puts after the flush, the second one "crashing"
	// after its append. Its record hit disk with an fsync before the
	// crash point, so it counts as acked too.
	sk3 := crashSketch(t, 3)
	if err := st.Put("post0", sk3); err != nil {
		t.Fatal(err)
	}
	want["post0"] = sk3
	disarm := crashAt(t, "put.appended", 1)
	sk4 := crashSketch(t, 4)
	err = st.Put("post1", sk4)
	disarm()
	if !errors.Is(err, errInjectedCrash) {
		t.Fatalf("Put = %v, want injected crash", err)
	}
	want["post1"] = sk4 // durable before the crash point
	expectState(t, dir, want)
}

// TestCrashDuringManifestSwap kills the process mid-Flush: before the
// rename (temp file debris) and after it (no directory sync). Both
// leave a store that recovers every acked mutation.
func TestCrashDuringManifestSwap(t *testing.T) {
	for _, point := range []string{"flush.written", "flush.renamed"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]*core.Sketch{}
			for i := 0; i < 3; i++ {
				name := fmt.Sprintf("s%d", i)
				sk := crashSketch(t, i)
				if err := st.Put(name, sk); err != nil {
					t.Fatal(err)
				}
				want[name] = sk
			}
			if err := st.Put("doomed", crashSketch(t, 9)); err != nil {
				t.Fatal(err)
			}
			if err := st.Delete("doomed"); err != nil {
				t.Fatal(err)
			}
			disarm := crashAt(t, point, 1)
			err = st.Flush()
			disarm()
			if !errors.Is(err, errInjectedCrash) {
				t.Fatalf("Flush = %v, want injected crash", err)
			}
			expectState(t, dir, want)
		})
	}
}

// TestCrashDuringCompaction kills the process at each compaction
// window: after the compacted segment is sealed (manifest still points
// at the sources), and after the manifest swap (sources not yet
// retired). Acked state must survive both, including deletes whose
// tombstones the compaction was folding away.
func TestCrashDuringCompaction(t *testing.T) {
	for _, point := range []string{"compact.sealed", "compact.swapped"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]*core.Sketch{}
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("s%d", i)
				sk := crashSketch(t, i)
				if err := st.Put(name, sk); err != nil {
					t.Fatal(err)
				}
				want[name] = sk
			}
			// Garbage for the compaction to fold: an overwrite and a delete.
			over := crashSketch(t, 40)
			if err := st.Put("s0", over); err != nil {
				t.Fatal(err)
			}
			want["s0"] = over
			if err := st.Delete("s3"); err != nil {
				t.Fatal(err)
			}
			delete(want, "s3")
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			disarm := crashAt(t, point, 1)
			_, err = st.Compact(context.Background())
			disarm()
			if !errors.Is(err, errInjectedCrash) {
				t.Fatalf("Compact = %v, want injected crash", err)
			}
			expectState(t, dir, want)

			// The reopened store must also have cleaned up whichever
			// side of the swap became redundant.
			st2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st2.Compact(context.Background()); err != nil {
				t.Fatalf("compaction after recovery: %v", err)
			}
			names, _ := st2.List()
			if len(names) != len(want) {
				t.Fatalf("post-recovery compaction lost state: %v", names)
			}
		})
	}
}

// TestCrashLeavesNoIndexedTempDebris reopens after an injected
// mid-flush crash and checks the temp file is swept.
func TestCrashLeavesNoIndexedTempDebris(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("a", crashSketch(t, 1)); err != nil {
		t.Fatal(err)
	}
	disarm := crashAt(t, "flush.written", 1)
	ferr := st.Flush()
	disarm()
	if !errors.Is(ferr, errInjectedCrash) {
		t.Fatalf("Flush = %v", ferr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sawTmp := false
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			sawTmp = true
		}
	}
	if !sawTmp {
		t.Fatal("crash point should have left the manifest temp file behind")
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	entries, _ = os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp debris survives reopen: %s", e.Name())
		}
	}
}

// TestFlushDoesNotCoverUnindexedRecords pins the covered-offset
// bookkeeping: a record that is durable in its segment but not yet in
// the in-memory index (a Put caught between append and manifest
// insertion) must stay beyond the covered horizon a concurrent Flush
// persists, so a crash right after that flush replays — not loses —
// the mutation.
func TestFlushDoesNotCoverUnindexedRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	skA := crashSketch(t, 1)
	if err := st.Put("a", skA); err != nil {
		t.Fatal(err)
	}
	// "b" reaches durability but the simulated crash strikes before the
	// index update — exactly the window a concurrent Flush could race.
	skB := crashSketch(t, 2)
	disarm := crashAt(t, "put.appended", 1)
	perr := st.Put("b", skB)
	disarm()
	if !errors.Is(perr, errInjectedCrash) {
		t.Fatalf("Put = %v, want injected crash", perr)
	}
	// The flush must persist a covered horizon below b's record.
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon the handle, reopen. b's durable record lies beyond
	// the persisted covered offset and must be replayed.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st2.Get("b")
	if err != nil {
		t.Fatalf("durable-but-unindexed record lost after flush+crash: %v", err)
	}
	if got.Len() != skB.Len() {
		t.Error("replayed record decoded wrong sketch")
	}
	if _, err := st2.Get("a"); err != nil {
		t.Fatal(err)
	}
}
