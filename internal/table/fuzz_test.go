package table

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV hardens the CSV reader + type inference against arbitrary
// input: it must never panic, and any successfully parsed table must be
// internally consistent and survive a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,x\n2,y\n")
	f.Add("a\n\n")
	f.Add("k,v\n,\n")
	f.Add("x,y,z\n1,2,3\n4,,6\n")
	f.Add("\"quoted,header\",b\n\"val\nnewline\",2\n")
	f.Add("a,a\n1,2\n")       // duplicate header names: an error, not New's panic
	f.Add("\ufeffa,b\n1,2\n") // byte-order mark
	f.Add("nan,inf\nNaN,Inf\n")
	f.Fuzz(func(t *testing.T, input string) {
		tb, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		// Consistency: all columns share one length.
		n := tb.NumRows()
		for _, c := range tb.Columns() {
			if c.Len() != n {
				t.Fatalf("column %q has %d rows, table has %d", c.Name, c.Len(), n)
			}
		}
		// Round trip must succeed and preserve shape.
		var buf bytes.Buffer
		if err := tb.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV after successful parse: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading own output: %v", err)
		}
		if back.NumRows() != n || back.NumCols() != tb.NumCols() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d",
				n, tb.NumCols(), back.NumRows(), back.NumCols())
		}
	})
}
