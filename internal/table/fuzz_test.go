package table

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// numberSeeds are the cells both fuzz targets start from: signs, a
// missing integer or fraction part, hex and underscores (ParseFloat's
// alone), 19- and 20-digit mantissas (one of them 2^64+5, which wraps a
// uint64 to 5), 2^53+1 (which a float64 cannot hold) alone and scaled,
// and the last power of ten a float64 represents exactly and the first
// it does not.
var numberSeeds = []string{"-0", "1e3", ".5", "1.", "0x1p-2", "1_0", "+7", "Inf",
	"1234567890123456789", "12345678901234567890", "18446744073709551621", "99999999999999999999",
	"9007199254740993", "9007199254740993e-2", "0.1234567890123456789e-3",
	"1e22", "1e23", "-1e-22", "1e-23", "0e400", "1e", "1e+", ".", "-", "1.5e3.5"}

// FuzzReadCSV hardens the CSV reader + type inference against arbitrary
// input: it must never panic, it must agree with the encoding/csv loop on
// every input — the same error-ness and, on success, the same table —
// and any successfully parsed table must be internally consistent and
// survive a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,x\n2,y\n")
	f.Add("a\n\n")
	f.Add("k,v\n,\n")
	f.Add("x,y,z\n1,2,3\n4,,6\n")
	f.Add("\"quoted,header\",b\n\"val\nnewline\",2\n")
	f.Add("a,a\n1,2\n")       // duplicate header names: an error, not New's panic
	f.Add("\ufeffa,b\n1,2\n") // byte-order mark
	f.Add("nan,inf\nNaN,Inf\n")
	f.Add("a,b\r\n1,2\r\n")
	f.Add("a,b\n\n1,2\n,\n3,4")
	f.Add("a,b\n1,2,3\n")
	f.Add(strings.Join(numberSeeds, ",") + "\n" + strings.Join(numberSeeds, ",") + "\n")
	for _, n := range numberSeeds {
		f.Add("k,v\nx," + n + "\ny,1\n")
	}
	f.Fuzz(func(t *testing.T, input string) {
		tb, err := ReadCSV(strings.NewReader(input))
		data := bytes.TrimPrefix([]byte(input), []byte(utf8BOM))
		ref, refErr := readRecords(data, csvRecords(data))
		if (err != nil) != (refErr != nil) {
			t.Fatalf("ReadCSV error %v, encoding/csv loop error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !sameTable(tb, ref) {
			t.Fatalf("ReadCSV and the encoding/csv loop read different tables:\n%+v\n%+v", tb.Columns(), ref.Columns())
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

// sameTable reports whether a and b have the same column names, kinds,
// cells and value bits.
func sameTable(a, b *Table) bool {
	if a.NumCols() != b.NumCols() {
		return false
	}
	for i, ca := range a.Columns() {
		cb := b.Columns()[i]
		if ca.Name != cb.Name || ca.Kind != cb.Kind || !slices.Equal(ca.Str, cb.Str) || len(ca.Num) != len(cb.Num) {
			return false
		}
		for j := range ca.Num {
			if math.Float64bits(ca.Num[j]) != math.Float64bits(cb.Num[j]) {
				return false
			}
		}
	}
	return true
}

// FuzzParseNumber holds the cell parser to strconv.ParseFloat: the same
// bits and the same error.
func FuzzParseNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := parseNumber(s, 64)
		want, wantErr := strconv.ParseFloat(s, 64)
		if math.Float64bits(got) != math.Float64bits(want) || !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("parseNumber(%q) = %v (%#x), %v; ParseFloat: %v (%#x), %v",
				s, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
		}
	})
}
