package store

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"misketch/internal/core"
)

// TestCloseReleasesMappings: a closed store gives its mappings back. A
// process that opens, fills and closes store after store (an ingest job's
// rounds) holds no mapping of any of them afterwards.
func TestCloseReleasesMappings(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	root, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sk := numSketch(t, 400)
	for i := 0; i < 20; i++ {
		st, err := OpenWithOptions(filepath.Join(root, fmt.Sprint(i)), OpenOptions{SegmentBytes: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 30; j++ {
			if err := st.Put(fmt.Sprintf("s%02d", j), sk); err != nil {
				t.Fatal(err)
			}
		}
		if i == 0 && len(st.Segments()) < 8 {
			t.Fatalf("fixture: %d segments, want several sealed ones", len(st.Segments()))
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if held := mappingsUnder(t, root); len(held) > 0 {
		t.Fatalf("%d mappings under the closed stores' root, first: %s", len(held), held[0])
	}
}

// mappingsUnder returns the lines of /proc/self/maps that map a file
// under root.
func mappingsUnder(t *testing.T, root string) []string {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	var held []string
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, root) {
			held = append(held, line)
		}
	}
	return held
}

// TestFailedOpenReleasesMappings: an open that fails after mapping some
// segments gives them back. A store without its MANIFEST and with a
// garbage segment file next to its real ones fails to open, and five such
// opens leave no mapping behind.
func TestFailedOpenReleasesMappings(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	root, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opened := OpenOptions{SegmentBytes: 16 << 10}
	st, err := OpenWithOptions(root, opened)
	if err != nil {
		t.Fatal(err)
	}
	sk := numSketch(t, 400)
	for j := 0; j < 30; j++ {
		if err := st.Put(fmt.Sprintf("s%02d", j), sk); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.Segments()) < 8 {
		t.Fatalf("fixture: %d segments, want several sealed ones", len(st.Segments()))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(root, ManifestFile)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, segmentsDir, "000000000099.seg"), []byte("not a segment, not even a header"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if st, err := OpenWithOptions(root, opened); err == nil {
			st.Close()
			t.Fatal("a store with a garbage segment opened")
		}
	}
	if held := mappingsUnder(t, root); len(held) > 0 {
		t.Fatalf("%d mappings under the root after failed opens, first: %s", len(held), held[0])
	}
}

// TestUseAfterClose: every entry point of a closed store fails with an
// error wrapping fs.ErrClosed, also on one the deprecated BackendMem
// alias opened on a temporary directory, except the observers (Stats,
// Segments, Gen, Dir), which still answer, and Meta and Metas, which have
// no error result and report nothing. A second Close is a no-op.
func TestUseAfterClose(t *testing.T) {
	for _, backend := range []string{"fs", BackendMem} {
		t.Run(backend, func(t *testing.T) {
			st, err := OpenWithOptions(t.TempDir(), OpenOptions{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			sk := windowSketch(t, core.RoleCandidate, 0, 0, 80, 1)
			train := windowSketch(t, core.RoleTrain, 0, 0, 80, 2)
			for _, name := range []string{"a", "b"} {
				if err := st.Put(name, sk); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := st.Get("a"); err != nil { // a cached sketch must not answer either
				t.Fatal(err)
			}
			gen := st.Gen()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			calls := map[string]func() error{
				"Put":    func() error { return st.Put("c", sk) },
				"Get":    func() error { _, err := st.Get("a"); return err },
				"Delete": func() error { return st.Delete("a") },
				"List":   func() error { _, err := st.List(); return err },
				"Len":    func() error { _, err := st.Len(); return err },
				"Flush":  st.Flush,
				"Compact": func() error {
					_, err := st.Compact(ctx)
					return err
				},
				"Verify": st.Verify,
				"RankQuery": func() error {
					_, _, err := st.RankQuery(ctx, train, RankOptions{})
					return err
				},
				"RankBatch": func() error {
					_, err := st.RankBatch(ctx, []*core.Sketch{train, train}, RankOptions{TopK: 1})
					return err
				},
			}
			for name, call := range calls {
				if err := call(); !errors.Is(err, fs.ErrClosed) {
					t.Errorf("%s after Close = %v, want fs.ErrClosed", name, err)
				}
			}
			if m, ok := st.Meta("a"); ok {
				t.Errorf("Meta after Close = %+v", m)
			}
			if metas := st.Metas(); metas != nil {
				t.Errorf("Metas after Close = %+v", metas)
			}
			if st.view != nil {
				t.Error("Metas after Close built a catalog view")
			}
			if err := st.Close(); err != nil {
				t.Errorf("second Close = %v", err)
			}
			stats := st.Stats()
			if stats.Backend != "fs" || stats.Puts != 2 || stats.Sketches != 0 || stats.Segments != 0 {
				t.Errorf("Stats after Close = %+v", stats)
			}
			if segs := st.Segments(); len(segs) != 0 {
				t.Errorf("Segments after Close = %+v", segs)
			}
			if st.Gen() != gen || st.Dir() == "" {
				t.Errorf("Gen %d (want %d), Dir %q after Close", st.Gen(), gen, st.Dir())
			}
		})
	}
}

// TestCloseRacesRanksAndPuts: Close lands while ranks, Gets and Puts are
// in flight. Each of them answers correctly or fails with fs.ErrClosed —
// never a crash, never a torn read of a segment Close unmapped under it —
// and every Put acknowledged before Close reads back after a reopen. A
// rank keeps the segments it pinned mapped past Close; the last unpin
// unmaps them.
func TestCloseRacesRanksAndPuts(t *testing.T) {
	dir := t.TempDir()
	opened := OpenOptions{SegmentBytes: 16 << 10}
	st, err := OpenWithOptions(dir, opened)
	if err != nil {
		t.Fatal(err)
	}
	base := make(map[string]*core.Sketch)
	for c := 0; c < 40; c++ {
		name := fmt.Sprintf("base/c%02d", c)
		base[name] = windowSketch(t, core.RoleCandidate, 0, 2*c, 60, int64(c))
		if err := st.Put(name, base[name]); err != nil {
			t.Fatal(err)
		}
	}
	train := windowSketch(t, core.RoleTrain, 0, 20, 60, 99)
	ranks := []RankOptions{
		{Prefix: "base/", MinJoinSize: 5, TopK: 5},
		{Prefix: "base/", MinJoinSize: 5, NoCascade: true},
	}
	want := make([][]RankedSketch, len(ranks))
	for i, opt := range ranks {
		if want[i], _, err = st.RankQuery(context.Background(), train, opt); err != nil || len(want[i]) == 0 {
			t.Fatalf("reference rank %d: %d rows, %v", i, len(want[i]), err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	put := windowSketch(t, core.RoleCandidate, 0, 0, 40, 7)

	acked := map[string]bool{}
	for round := 0; round < 4; round++ {
		if st, err = OpenWithOptions(dir, opened); err != nil {
			t.Fatal(err)
		}
		// The pin a rank takes, held across Close: the view it borrows
		// must stay readable until the pin is released.
		m, _ := st.Meta("base/c00")
		unpin := st.backend.pin(map[uint64]struct{}{m.Segment: {}})
		view, tag, err := st.backend.load(m, true)
		if err != nil || tag == 0 {
			t.Fatalf("fixture: view of %+v borrows from segment %d: %v", m, tag, err)
		}
		// fail records the first wrong answer; fs.ErrClosed is the one
		// error a racing call may return.
		var first atomic.Pointer[error]
		fail := func(err error) { first.CompareAndSwap(nil, &err) }
		var started sync.WaitGroup
		var wg sync.WaitGroup
		run := func(op func(i int) error) {
			started.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					if i == 2 {
						started.Done()
					}
					if err := op(i); err != nil {
						if i < 2 {
							started.Done()
						}
						if !errors.Is(err, fs.ErrClosed) {
							fail(err)
						}
						return
					}
				}
			}()
		}
		for w := range ranks {
			run(func(int) error {
				got, _, err := st.RankQuery(context.Background(), train, ranks[w])
				if err == nil && !sameRanked(got, want[w]) {
					err = fmt.Errorf("rank %d racing Close: %v, want %v", w, got, want[w])
				}
				return err
			})
		}
		run(func(i int) error {
			name := fmt.Sprintf("base/c%02d", i%len(base))
			got, err := st.Get(name)
			if err == nil && (!slices.Equal(got.KeyHashes, base[name].KeyHashes) || !slices.Equal(got.Nums, base[name].Nums)) {
				err = fmt.Errorf("Get(%q) racing Close read a different sketch", name)
			}
			return err
		})
		var mu sync.Mutex
		run(func(i int) error {
			name := fmt.Sprintf("new/r%d-%04d", round, i)
			err := st.Put(name, put)
			if err == nil {
				mu.Lock()
				acked[name] = true
				mu.Unlock()
			}
			return err
		})
		started.Wait() // every worker is past its second call, into its third
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if err := first.Load(); err != nil {
			t.Fatalf("round %d: %v", round, *err)
		}
		if !slices.Equal(view.KeyHashes, base["base/c00"].KeyHashes) || !slices.Equal(view.Nums, base["base/c00"].Nums) {
			t.Fatalf("round %d: a pinned view changed under Close", round)
		}
		unpin()
	}

	st, err = OpenWithOptions(dir, opened)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n, _ := st.Len(); n != len(base)+len(acked) {
		t.Errorf("reopened store holds %d sketches, want %d base and %d acked Puts", n, len(base), len(acked))
	}
	for name := range acked {
		if got, err := st.Get(name); err != nil || !slices.Equal(got.KeyHashes, put.KeyHashes) {
			t.Fatalf("acked Put %q after reopen: %v", name, err)
		}
	}
}
