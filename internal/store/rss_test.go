package store

// What reads and compactions leave resident: every read whose decode
// copies reads its record by pread, so neither a sweep of owning loads
// and compressed rank loads nor a compaction faults a segment's record
// region into the process's file-backed RSS. Only a rank's views of raw
// records touch a mapping.

import (
	"bufio"
	"context"
	"os"
	"strconv"
	"strings"
	"testing"
)

// rssFileBytes reads RssFile from /proc/self/status, reporting false
// where there is no such line (a kernel before 4.5, or not Linux).
func rssFileBytes() (int64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "RssFile:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err == nil
		}
	}
	return 0, false
}

// TestRecordReadsStayOffTheMappings: a compressing Compact of raw
// sources, then Get and a rank of every record of its compressed output,
// each grow RssFile by less than a quarter of the record region they
// read. Not parallel: RssFile is the whole process's.
func TestRecordReadsStayOffTheMappings(t *testing.T) {
	if _, ok := rssFileBytes(); !ok {
		t.Skip("no RssFile line in /proc/self/status")
	}
	ctx := context.Background()
	dir := t.TempDir()
	train := rawCatalog(t, dir, 2000)
	open := func(cacheBytes int64) *Store {
		st, err := OpenWithOptions(dir, OpenOptions{Compression: true, CacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// grows runs step and fails if RssFile grew by a quarter of the
	// record bytes of st's catalog or more.
	grows := func(label string, st *Store, step func()) {
		t.Helper()
		var region int64
		for _, m := range st.Metas() {
			region += m.Bytes
		}
		before, _ := rssFileBytes()
		step()
		after, _ := rssFileBytes()
		t.Logf("%s: RssFile grew %d KiB over a %d KiB record region", label, (after-before)>>10, region>>10)
		if after-before >= region/4 {
			t.Errorf("%s grew RssFile by %d KiB, over a quarter of the %d KiB it read: records are read through the mapping", label, (after-before)>>10, region>>10)
		}
	}

	st := open(0)
	// A pin, as a rank in flight holds, keeps the source mapped past its
	// retirement, so what the copy faulted in is still there to measure.
	_, _, release := st.backend.pinSealed()
	grows("a compressing Compact", st, func() {
		if cs, err := st.Compact(ctx); err != nil || !cs.Compacted {
			t.Fatalf("compact = %+v, %v", cs, err)
		}
	})
	release()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = open(-1) // no cache: every read below decodes
	defer st.Close()
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(prefix string) {
		opt := RankOptions{Prefix: prefix, MinJoinSize: 50, NoIndex: true}
		if _, _, err := st.RankQuery(ctx, train, opt); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if !strings.HasPrefix(name, prefix) {
				continue
			}
			if _, err := st.Get(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep(names[0]) // the code's own pages, faulted in before the measure
	reads := st.Stats().DiskReads
	grows("Get and a rank of every record", st, func() { sweep("") })
	if got := st.Stats().DiskReads - reads; got != 2*int64(len(names)) {
		t.Fatalf("fixture: the sweep read %d records, not each of %d twice", got, len(names))
	}
}
