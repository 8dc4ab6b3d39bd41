package store

// What a cold start costs outside the repository benchmark: open a
// compressed, indexed catalog shaped like its sel20k (disjoint key
// domains of 300 keys, 200 candidates each, half numeric, half
// categorical with long shared labels, 256-entry sketches) and answer
// the first rank, as a service's first query after a restart does.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"misketch/internal/core"
)

const (
	selCatKeys      = 300 // keys per domain
	selCatPerDomain = 200 // candidates per domain
)

// coldCatalog writes a catalog of n candidates (n/200 domains) into dir —
// rawCatalog's Puts, then a compressing Compact — and returns domain 0's
// train.
func coldCatalog(tb testing.TB, dir string, n int) *core.Sketch {
	tb.Helper()
	train := rawCatalog(tb, dir, n)
	st, err := OpenWithOptions(dir, OpenOptions{Compression: true})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := st.Compact(context.Background()); err != nil {
		tb.Fatal(err)
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	return train
}

// rawCatalog Puts coldCatalog's n candidates into dir, closes the store,
// which leaves them in one sealed raw segment, and returns domain 0's
// train.
func rawCatalog(tb testing.TB, dir string, n int) *core.Sketch {
	tb.Helper()
	st, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	build := func(role core.Role, numeric bool, add func(b *core.StreamBuilder)) *core.Sketch {
		b, err := core.NewStreamBuilder(role, numeric, core.Options{Method: core.TUPSK, Size: 256})
		if err != nil {
			tb.Fatal(err)
		}
		add(b)
		return b.Sketch()
	}
	key := func(d, g int) string { return fmt.Sprintf("d%03d-k%d", d, g) }
	for c := 0; c < n; c++ {
		d, j := c/selCatPerDomain, c%selCatPerDomain
		numeric, planted := j%2 == 0, j%50 < 2
		sk := build(core.RoleCandidate, numeric, func(b *core.StreamBuilder) {
			for g := 0; g < selCatKeys; g++ {
				switch level := g % 20; {
				case numeric && planted:
					b.AddNum(key(d, g), float64(level)+0.3*rng.NormFloat64())
				case numeric:
					b.AddNum(key(d, g), rng.NormFloat64())
				default:
					if !planted {
						level = rng.Intn(12)
					}
					b.AddStr(key(d, g), fmt.Sprintf("category/region-%03d/level-%02d", d, level))
				}
			}
		})
		if err := st.Put(fmt.Sprintf("sel/d%03d/t%03d#x", d, j), sk); err != nil {
			tb.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	return build(core.RoleTrain, true, func(b *core.StreamBuilder) {
		for i := 0; i < 4000; i++ {
			g := rng.Intn(selCatKeys)
			b.AddNum(key(0, g), float64(g%20)+0.25*rng.NormFloat64())
		}
	})
}

// BenchmarkOpenFirstRank times a cold start at 2 000 and 20 000
// candidates: open the store, then the first top-10 rank of one domain's
// train (its 200 candidates join, the key index excludes the rest). Each
// catalog is built once per process, on first use. open_ms, view_ms and
// rank_ms split an op: the open, the first catalog view (which waits for
// a key index the open's warm-up is still parsing), and the rank on it.
//
//	go test -run '^$' -bench OpenFirstRank -benchtime 20x ./internal/store
func BenchmarkOpenFirstRank(b *testing.B) {
	root := b.TempDir()
	for _, n := range []int{2000, 20000} {
		var dir string
		var train *core.Sketch
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			if train == nil {
				dir = filepath.Join(root, strconv.Itoa(n))
				train = coldCatalog(b, dir, n)
			}
			opt := RankOptions{Prefix: "sel/", MinJoinSize: 50, TopK: 10}
			var open, view, rank time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				st, err := OpenWithOptions(dir, OpenOptions{Compression: true})
				if err != nil {
					b.Fatal(err)
				}
				opened := time.Now()
				st.mu.Lock()
				st.viewLocked()
				st.mu.Unlock()
				viewed := time.Now()
				ranked, _, err := st.RankQuery(context.Background(), train, opt)
				if err != nil || len(ranked) != 10 {
					b.Fatalf("first rank: %d results, %v", len(ranked), err)
				}
				open, view, rank = open+opened.Sub(start), view+viewed.Sub(opened), rank+time.Since(viewed)
				b.StopTimer()
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			for _, part := range []struct {
				d    time.Duration
				unit string
			}{{open, "open_ms"}, {view, "view_ms"}, {rank, "rank_ms"}} {
				b.ReportMetric(part.d.Seconds()*1e3/float64(b.N), part.unit)
			}
		})
	}
}

// TestOpenAllocsFlat: opening a catalog allocates per segment, never per
// entry — the MANIFEST's table is parsed in place, with no map and no
// name copies — so a catalog twice the size costs at most a handful more
// objects (the allocator's size classes), not thousands.
func TestOpenAllocsFlat(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("builds a 2 000- and a 4 000-sketch store, ten times slower under the race detector; CI's bench smoke runs it without")
	}
	allocs := func(n int) float64 {
		dir := t.TempDir()
		coldCatalog(t, dir, n)
		return testing.AllocsPerRun(5, func() {
			st, err := OpenWithOptions(dir, OpenOptions{Compression: true})
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := st.Len(); n == 0 {
				t.Fatal("opened an empty catalog")
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2000), allocs(4000)
	t.Logf("objects allocated by an open: %v at 2 000 entries, %v at 4 000", small, large)
	if large > small+100 {
		t.Fatalf("opening 4 000 entries allocates %v objects, 2 000 entries %v: per-entry allocation is back on the open path", large, small)
	}
}
