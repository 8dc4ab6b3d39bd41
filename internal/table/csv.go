package table

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"io/fs"
	"math"
	"slices"
	"strconv"
	"strings"
)

// parseFloat is strconv.ParseFloat; a variable so a test can count calls.
var parseFloat = strconv.ParseFloat

// ReadCSV parses a CSV stream with a header row into a Table, inferring
// each column's kind: a column is numeric if every non-empty cell parses
// as a float64, otherwise it is a string column. Empty cells become NULLs.
// This plays the role of Tablesaw's type inference in the paper's
// real-data pipeline. A leading UTF-8 byte-order mark is skipped; empty
// and repeated column names are errors.
//
// Each cell is converted once: a column is parsed as numeric as it is
// read, until its first cell that is not a number.
func ReadCSV(r io.Reader) (*Table, error) {
	size := inputSize(r)
	br := bufio.NewReader(r)
	if lead, _ := br.Peek(len(utf8BOM)); string(lead) == utf8BOM {
		_, _ = br.Discard(len(utf8BOM)) // cannot fail: just peeked
	}
	cr := csv.NewReader(br)
	cr.ReuseRecord = true // cells are substrings of a string made per record
	header, err := cr.Read()
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
	headerEnd := cr.InputOffset()
	for n := 0; ; n++ {
		if n == sizingRows && size > cr.InputOffset() {
			// The rows so far give a row's length: reserve the rest of the
			// input's rows at once, where append would copy its way up.
			rest := (size - cr.InputOffset()) * sizingRows / (cr.InputOffset() - headerEnd)
			for i := range cols {
				cols[i].reserve(int(min(rest+rest/16, maxReserve)))
			}
		}
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: reading CSV row: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("table: CSV row has %d fields, header has %d", len(rec), len(header))
		}
		for i, v := range rec {
			cols[i].add(strings.TrimSpace(v))
		}
	}
	out := make([]*Column, len(cols))
	for i := range cols {
		out[i] = cols[i].column()
	}
	return New(out...), nil
}

const (
	utf8BOM = "\ufeff"
	// sizingRows is how many rows ReadCSV reads before it sizes the
	// column buffers from their mean length; maxReserve bounds that
	// reservation, so rows that are short only at the top of a large
	// input cannot make it over-allocate by much.
	sizingRows = 64
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

func (c *csvColumn) add(v string) {
	c.strs = append(c.strs, v)
	switch {
	case !c.numeric:
	case v == "":
		c.nums = append(c.nums, math.NaN())
	default:
		f, err := parseFloat(v, 64)
		if err != nil {
			c.numeric, c.nums = false, nil
			return
		}
		c.nums, c.any = append(c.nums, f), true
	}
}

func (c *csvColumn) reserve(rows int) {
	c.strs = slices.Grow(c.strs, rows)
	if c.numeric {
		c.nums = slices.Grow(c.nums, rows)
	}
}

func (c *csvColumn) column() *Column {
	if c.numeric && c.any {
		return NewFloatColumn(c.name, c.nums)
	}
	return NewStringColumn(c.name, c.strs)
}

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
