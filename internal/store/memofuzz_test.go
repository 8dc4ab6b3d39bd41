package store

// The memo-off differential: every memo a catalog view keeps — the probe
// plans with their exact slots, the sample plans with their candidate
// sides — must change what a rank costs and never what it answers. The
// reference is a second store with the same history whose views keep
// nothing (testHookNoMemo).

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"misketch/internal/core"
)

// memoTrains are the trains a script ranks with, two key samples' worth
// (sidememo_test.go's variants): each base, fresh values on its keys, the
// same keys in another entry order, the keys extended by another window's,
// and categorical values on them.
func memoTrains(t testing.TB) []*core.Sketch {
	var out []*core.Sketch
	for b := range 2 {
		st := sideTrains{windowSketch(t, core.RoleTrain, 0, 100*b, 90, int64(1+b))}
		extra, ext := windowSketch(t, core.RoleTrain, 0, 200+100*b, 40, int64(7+b)), st.fresh(0)
		ext.KeyHashes, ext.Nums = append(slices.Clone(ext.KeyHashes), extra.KeyHashes...), append(ext.Nums, extra.Nums...)
		out = append(out, st.base, st.fresh(1), st.permuted(2), ext, st.cat(1))
	}
	return out
}

// checkMoved fails unless every RankTrace field of the store's Stats moved
// from before to after by exactly what trace reports.
func checkMoved(t *testing.T, label string, before, after Stats, trace RankTrace) {
	t.Helper()
	b, a, r := reflect.ValueOf(before.RankTrace), reflect.ValueOf(after.RankTrace), reflect.ValueOf(trace)
	for i := range r.NumField() {
		if moved := a.Field(i).Int() - b.Field(i).Int(); moved != r.Field(i).Int() {
			t.Fatalf("%s: Stats.%s moved %d, the trace holds %d", label, r.Type().Field(i).Name, moved, r.Field(i).Int())
		}
	}
}

// FuzzRankMemos plays the script its input spells — Puts, overwrites,
// Deletes and Compacts of candidates under two prefixes, Flushes,
// reopens, and batches of the memoTrains under every option phase 1 or
// phase 2 reads, and deep copies of a batch, equal or with one value
// nudged — against a store and
// its memo-off twin, and holds every answer's rankings, Pruned, Skipped
// and SeedBound bit-identical and the store's totals moving by exactly
// the RankTrace each call reports. A reopen opens the store from its
// MANIFEST (replaying, when the handle was abandoned unflushed, the tail
// past it) and the twin from its segments alone, and holds List and Metas
// equal. Its seed corpus is in testdata/fuzz/FuzzRankMemos.
//
// Fuzz it with -fuzzminimizetime as a count (20x): the engine minimises
// every input that finds new coverage, re-running its whole script per
// candidate (~n²/2 runs of ~10 ms for an n-byte script), so a time bound
// — 60 s unless set — is spent in full on each, and the run stalls.
func FuzzRankMemos(f *testing.F) {
	trains := memoTrains(f)
	f.Fuzz(func(t *testing.T, script []byte) {
		dir, refDir := t.TempDir(), t.TempDir()
		open := func(dir string) *Store {
			// Small segments, so Puts seal (and index) some.
			st, err := OpenWithOptions(dir, OpenOptions{SegmentBytes: 8 << 10})
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		st, ref := open(dir), open(refDir)
		t.Cleanup(func() { st.Close(); ref.Close() })
		testHookNoMemo = func(s *Store) bool { return s == ref }
		defer func() { testHookNoMemo = nil }()
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		both := func(label string, op func(*Store) error) {
			for _, s := range []*Store{st, ref} {
				if err := op(s); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
		ctx := context.Background()
		batch := trains[1:2]
		opt := RankOptions{MinJoinSize: 8, K: 3, TopK: 3, Workers: 1}
		for step := 0; step < 48 && len(script) > 0; step++ {
			switch op := next() % 11; {
			case op < 3: // a Put, new or over an earlier name
				n, kind, lo := next(), next(), next()
				name := fmt.Sprintf("%c/c%d", "ab"[n%2], n/2%8)
				var sk *core.Sketch
				switch kind % 8 {
				case 5:
					sk = windowSketch(t, core.RoleCandidate, 9, lo, 80, int64(kind)) // another seed: skipped
				case 6:
					sk = windowSketch(t, core.RoleTrain, 0, lo, 80, int64(kind)) // a train: skipped
				case 7:
					sk = &core.Sketch{Method: core.TUPSK, Role: core.RoleCandidate, Numeric: true}
				default:
					sk = windowSketch(t, core.RoleCandidate, 0, lo, 40+kind%4*20, int64(kind))
					if kind%8 == 4 {
						sk.Numeric, sk.Strs = false, make([]string, len(sk.Nums))
						for j, v := range sk.Nums {
							sk.Strs[j] = fmt.Sprintf("L%d", int(math.Abs(v))%3)
						}
						sk.Nums = nil
					}
				}
				both("put "+name, func(s *Store) error { return s.Put(name, sk) })
			case op == 3:
				names, _ := st.List()
				if len(names) > 0 {
					name := names[next()%len(names)]
					both("delete "+name, func(s *Store) error { return s.Delete(name) })
				}
			case op == 4:
				both("compact", func(s *Store) error { _, err := s.Compact(ctx); return err })
			case op == 10:
				// A Flush; or both handles close, or both are abandoned
				// unflushed and unsealed, as a crash leaves them, and reopen:
				// st from its MANIFEST, replaying any tail past it into the
				// pending set, and ref from its segments alone.
				mode := next() % 3
				if mode == 0 {
					both("flush", func(s *Store) error { return s.Flush() })
					break
				}
				if mode == 1 {
					both("close", func(s *Store) error { return s.Close() })
				}
				if err := os.Remove(filepath.Join(refDir, ManifestFile)); err != nil && !os.IsNotExist(err) {
					t.Fatal(err)
				}
				st, ref = open(dir), open(refDir)
				names, _ := st.List()
				if refNames, _ := ref.List(); !slices.Equal(names, refNames) {
					t.Fatalf("step %d: reopened List %v, replayed %v", step, names, refNames)
				}
				if got, want := st.Metas(), ref.Metas(); !slices.Equal(got, want) {
					t.Fatalf("step %d: reopened Metas\n%+v\nreplayed\n%+v", step, got, want)
				}
			default:
				// One change to the standing query, then rank it: most ranks
				// repeat a key sample, as a sweep's or a coordinator's do.
				switch c := next(); c % 8 {
				case 0:
					batch = make([]*core.Sketch, 1+next()%3)
					for i := range batch {
						batch[i] = trains[next()%len(trains)]
					}
					opt.MinMI = nil
				case 1:
					opt.TopK = []int{0, 1, 3, 5}[c>>3%4]
				case 2:
					opt.K = 8 - opt.K // 3 or 5
				case 3:
					opt.Seed = !opt.Seed
				case 4:
					opt.Prefix = []string{"", "a/", "b/c1"}[c>>3%3]
				case 5:
					opt.MinJoinSize = []int{-1, 0, 8, 20}[c>>3%4]
				case 6:
					// The batch as new objects, as a server decodes each
					// request's trains: equal, so they meet its plans, or
					// with one value nudged, so they must not.
					batch = freshAll(batch, 0)
					if tr := batch[c>>4%len(batch)]; c&8 != 0 {
						if j := (c>>4 + step) % tr.Len(); tr.Numeric {
							tr.Nums[j] += 0.5
						} else {
							tr.Strs[j] += "'"
						}
					}
				default:
					opt.Workers, opt.NoIndex, opt.MinMI = 1+c>>3&1, c>>4&3 == 3, nil
					if c&64 != 0 {
						opt.MinMI = slices.Repeat([]float64{0.05}, len(batch))
					}
				}
				label := fmt.Sprintf("step %d: %d trains %+v", step, len(batch), opt)
				s0, r0 := st.Stats(), ref.Stats()
				got, err := st.RankBatch(ctx, batch, opt)
				want, refErr := ref.RankBatch(ctx, batch, opt)
				if fmt.Sprint(err) != fmt.Sprint(refErr) {
					t.Fatalf("%s: error %v, memo-off %v", label, err, refErr)
				}
				if err == nil {
					sameBatch(t, label, got, want)
					checkMoved(t, label, s0, st.Stats(), got.RankTrace)
					// A rank counts what index selection excluded, from a
					// sample plan or a reused probe plan too.
					n, refN := st.Stats().CandidatesSkippedNoDecode-s0.CandidatesSkippedNoDecode, ref.Stats().CandidatesSkippedNoDecode-r0.CandidatesSkippedNoDecode
					if n != refN {
						t.Fatalf("%s: %d candidates skipped undecoded, memo-off %d", label, n, refN)
					}
				}
			}
		}
	})
}
