package table

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"io/fs"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// parseFloat converts a numeric column's cells; a variable so a test
// can count calls.
var parseFloat = parseNumber

// ReadCSV parses a CSV stream with a header row into a Table, inferring
// each column's kind: a column is numeric if every non-empty cell parses
// as a float64, otherwise it is a string column. Empty cells become NULLs.
// This plays the role of Tablesaw's type inference in the paper's
// real-data pipeline. A leading UTF-8 byte-order mark is skipped; empty
// and repeated column names are errors.
//
// The input is read into memory once. Input with no '"' and no '\r' byte
// is split by a byte scanner whose cells are substrings of one string
// over the input; anything else goes through encoding/csv, the only path
// that reads quoted fields. Each cell is converted once: a column is
// parsed as numeric as it is read, until its first cell that is not a
// number.
func ReadCSV(r io.Reader) (*Table, error) {
	data, err := readInput(r)
	if err != nil {
		return nil, fmt.Errorf("table: reading CSV: %w", err)
	}
	data = bytes.TrimPrefix(data, []byte(utf8BOM))
	if bytes.IndexByte(data, '"') >= 0 || bytes.IndexByte(data, '\r') >= 0 {
		return readRecords(data, csvRecords(data))
	}
	return readRecords(data, plainRecords(data))
}

// readInput reads r to its end, in one allocation when r can tell its
// size.
func readInput(r io.Reader) ([]byte, error) {
	var b bytes.Buffer
	if n := inputSize(r); n > 0 && n < 1<<30 {
		b.Grow(int(n) + bytes.MinRead)
	}
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// readRecords builds the table from a header record and rows, each a
// record next returns until io.EOF. Both readers fail a row whose field
// count is not the header's.
func readRecords(data []byte, next func() ([]string, error)) (*Table, error) {
	header, err := next()
	if err != nil {
		return nil, fmt.Errorf("table: reading CSV header: %w", err)
	}
	cols := make([]csvColumn, len(header))
	seen := make(map[string]bool, len(header))
	for i, name := range header {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("table: CSV column %d has an empty name", i+1)
		}
		if seen[name] {
			return nil, fmt.Errorf("table: CSV has two columns named %q", name)
		}
		seen[name] = true
		cols[i] = csvColumn{name: name, numeric: true}
	}
	// A row holds a byte per field at least (a comma or its line's end),
	// and takes a line of its own: reserve that many rows at once, where
	// append would copy its way up.
	rows := min(bytes.Count(data, []byte{'\n'})+1, len(data)/len(cols), maxReserve)
	for i := range cols {
		cols[i].strs = make([]string, 0, rows)
	}
	for {
		rec, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: reading CSV row: %w", err)
		}
		for i, v := range rec {
			cols[i].add(trimSpace(v))
		}
	}
	out := make([]*Column, len(cols))
	for i := range cols {
		out[i] = cols[i].column()
	}
	return New(out...), nil
}

// csvRecords reads data with encoding/csv. Each record's cells are
// substrings of one string made for it.
func csvRecords(data []byte) func() ([]string, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.ReuseRecord = true
	return cr.Read
}

// plainRecords splits data, which holds no '"' and no '\r', as
// encoding/csv would: a record per line, a field between commas, empty
// lines skipped, and a record whose field count differs from the first
// record's an error. The cells are substrings of one string over data,
// which must not change afterwards.
func plainRecords(data []byte) func() ([]string, error) {
	rest := unsafe.String(unsafe.SliceData(data), len(data))
	var rec []string
	fields, line := -1, 0
	return func() ([]string, error) {
		for rest != "" && rest[0] == '\n' {
			rest, line = rest[1:], line+1
		}
		if rest == "" {
			return nil, io.EOF
		}
		line++
		text := rest
		if end := strings.IndexByte(rest, '\n'); end >= 0 {
			text, rest = rest[:end], rest[end+1:]
		} else {
			rest = ""
		}
		r := rec[:0]
		for {
			i := strings.IndexByte(text, ',')
			if i < 0 {
				break
			}
			r = append(r, text[:i])
			text = text[i+1:]
		}
		rec = append(r, text)
		switch {
		case fields < 0:
			fields = len(rec)
		case len(rec) != fields:
			return rec, &csv.ParseError{StartLine: line, Line: line, Column: 1, Err: csv.ErrFieldCount}
		}
		return rec, nil
	}
}

const (
	utf8BOM = "\ufeff"
	// maxReserve bounds the rows ReadCSV reserves a column up front.
	maxReserve = 1 << 20
)

// inputSize returns the bytes r has left when r can tell — in-memory
// readers and regular files can — and 0 otherwise.
func inputSize(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return 0
}

// csvColumn accumulates one column: the cells as read and, while every
// non-empty one has parsed as a number, their values.
type csvColumn struct {
	name    string
	strs    []string
	nums    []float64
	numeric bool // no non-numeric cell so far
	any     bool // some cell was non-empty
}

// trimSpace is strings.TrimSpace, returning at once a cell that starts
// and ends with a printable ASCII byte, as most cells do.
func trimSpace(v string) string {
	if v != "" && v[0] > ' ' && v[0] < utf8.RuneSelf && v[len(v)-1] > ' ' && v[len(v)-1] < utf8.RuneSelf {
		return v
	}
	return strings.TrimSpace(v)
}

func (c *csvColumn) add(v string) {
	c.strs = append(c.strs, v)
	if !c.numeric {
		return
	}
	f := math.NaN()
	if v != "" {
		var err error
		if f, err = parseFloat(v, 64); err != nil {
			c.numeric, c.nums = false, nil
			return
		}
		c.any = true
	}
	if c.nums == nil { // the first value: reserve them as the cells were
		c.nums = make([]float64, 0, cap(c.strs))
	}
	c.nums = append(c.nums, f)
}

func (c *csvColumn) column() *Column {
	if c.numeric && c.any {
		return NewFloatColumn(c.name, c.nums)
	}
	return NewStringColumn(c.name, c.strs)
}

// parseNumber is strconv.ParseFloat behind Clinger's exact fast path
// (W. D. Clinger, "How to Read Floating Point Numbers Accurately", PLDI
// 1990): a plain decimal whose digits form an integer m ≤ 2^53, with at
// most 22 of them after the point, is m/10^k, one correctly rounded
// division of two exact float64s. Everything else — more digits, an
// exponent, NaN, Inf, hex, underscores, every error — is
// strconv.ParseFloat's, so values and errors are its, bit for bit.
func parseNumber(s string, bitSize int) (float64, error) {
	if f, ok := exactDecimal(s); ok && bitSize == 64 {
		return f, nil
	}
	return strconv.ParseFloat(s, bitSize)
}

// exactDecimal parses s of the form [+-]digits[.digits] (either digit
// run may be empty, not both) when Clinger's fast path applies to it,
// and reports whether it did.
func exactDecimal(s string) (float64, bool) {
	neg := s != "" && s[0] == '-'
	if neg || s != "" && s[0] == '+' {
		s = s[1:]
	}
	var m uint64
	digits, scale := 0, -1 // scale: digits after the point, -1 before it
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c-'0' < 10:
			m = m*10 + uint64(c-'0')
			digits++
			if scale >= 0 {
				scale++
			}
		case c == '.' && scale < 0:
			scale = 0
		default:
			return 0, false
		}
	}
	// Nineteen digits cannot overflow m; leading zeros count, which only
	// sends a few more cells to ParseFloat.
	if digits == 0 || digits > 19 || m > 1<<53 || scale >= len(exactPow10) {
		return 0, false
	}
	f := float64(m)
	if scale > 0 {
		f /= exactPow10[scale]
	}
	if neg {
		f = -f
	}
	return f, true
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [23]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// WriteCSV writes the table as CSV with a header row. NULLs are written
// as empty cells. A NULL row of a single-column table is written as a
// quoted empty string rather than a blank line, which csv readers
// (including ours) would otherwise skip, breaking round trips.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	writeRecord := func(rec []string) error {
		if len(rec) == 1 && rec[0] == "" {
			// encoding/csv renders a lone empty field as a blank line,
			// which readers skip; force an explicitly quoted empty field.
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
			_, err := io.WriteString(w, "\"\"\n")
			return err
		}
		return cw.Write(rec)
	}
	if err := writeRecord(t.ColumnNames()); err != nil {
		return err
	}
	row := make([]string, t.NumCols())
	for i := 0; i < t.NumRows(); i++ {
		for j, c := range t.cols {
			if c.IsNull(i) {
				row[j] = ""
			} else {
				row[j] = c.StringAt(i)
			}
		}
		if err := writeRecord(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
