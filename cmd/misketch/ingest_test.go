package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"misketch"
)

// TestIngestFileSkipsMalformedCSV pins what `store ingest` does with a
// file it cannot turn into a table: it skips that file with a reason and
// goes on — a repeated or empty column name used to panic and take every
// worker's progress with it — and that an exported CSV starting with a
// byte-order mark is ingested, not skipped for lacking the key column.
func TestIngestFileSkipsMalformedCSV(t *testing.T) {
	dir := t.TempDir()
	st, err := misketch.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, tc := range []struct {
		name, csv string
		sketches  int
		skip      string // substring of the skip reason; empty: ingested
	}{
		{"good.csv", "key,a,b\nk1,1,x\nk2,2,y\n", 2, ""},
		{"bom.csv", "\ufeffkey,a\nk1,1\nk2,2\n", 1, ""},
		{"dup.csv", "key,a,a\nk1,2,3\n", 0, `two columns named "a"`},
		{"empty.csv", "key,a,\nk1,2,3\n", 0, "empty name"},
		{"nokey.csv", "id,a\nk1,2\n", 0, `no column "key"`},
	} {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, []byte(tc.csv), 0o644); err != nil {
			t.Fatal(err)
		}
		n, skip, err := ingestFile(st, path, "key", misketch.Options{Size: 16}, misketch.AggFirst)
		if err != nil || n != tc.sketches {
			t.Errorf("%s: ingested %d sketches, err %v; want %d and no store error", tc.name, n, err, tc.sketches)
		}
		if (skip == nil) != (tc.skip == "") || skip != nil && !strings.Contains(skip.Error(), tc.skip) {
			t.Errorf("%s: skip reason %v, want %q", tc.name, skip, tc.skip)
		}
	}
	if names, err := st.List(); err != nil || len(names) != 3 {
		t.Errorf("store holds %v (err %v), want the three sketches of the two readable files", names, err)
	}
}
