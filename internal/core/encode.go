package core

import (
	"fmt"
	"io"
	"math"

	"misketch/internal/binio"
)

// Sketches are built in an offline preprocessing stage (Section IV) and
// persisted alongside the dataset catalog; discovery queries then operate
// on stored sketches alone. This file implements a compact, versioned
// binary format for that storage.
//
// Layout (little-endian, varint = unsigned LEB128):
//
//	magic "MISK" | version u8 | method str | role u8 | seed u32 |
//	size varint | numeric u8 | sourceRows varint | count varint |
//	keyHashes u32×count | values (f64 bits or str)×count
//
// str = varint length + raw bytes.
//
// WriteTo appends the sketch to one buffer and writes it once;
// ReadSketch reads its input to the end and parses it in place, so bytes
// after the sketch are an error. The store keeps the header's metadata
// per sketch in its manifest (magic "MISX", internal/store/manifest.go)
// so discovery queries can filter candidates without decoding a record.

const (
	sketchMagic   = "MISK"
	sketchVersion = 1
)

// WriteTo serializes the sketch in one write. It implements
// io.WriterTo.
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	dst := append(make([]byte, 0, 64+12*s.Len()), sketchMagic...)
	dst = append(dst, sketchVersion)
	dst = binio.AppendStr(dst, string(s.Method))
	dst = append(dst, uint8(s.Role))
	dst = binio.AppendU32(dst, s.Seed)
	dst = binio.AppendUvarint(dst, uint64(s.Size))
	dst = append(dst, b2u8(s.Numeric))
	dst = binio.AppendUvarint(dst, uint64(s.SourceRows))
	dst = binio.AppendUvarint(dst, uint64(s.Len()))
	for _, hk := range s.KeyHashes {
		dst = binio.AppendU32(dst, hk)
	}
	if s.Numeric {
		for _, v := range s.Nums {
			dst = binio.AppendU64(dst, math.Float64bits(v))
		}
	} else {
		for _, v := range s.Strs {
			dst = binio.AppendStr(dst, v)
		}
	}
	n, err := w.Write(dst)
	return int64(n), err
}

// SketchHeader is the metadata prefix of a serialized sketch —
// everything before the key-hash and value arrays. It carries what a
// catalog needs to decide whether a stored sketch is even a join
// candidate (seed, role, method, value kind) without deserializing the
// sketch body.
type SketchHeader struct {
	Method     Method
	Role       Role
	Seed       uint32
	Size       int
	Numeric    bool
	SourceRows int
	// Entries is the number of stored entries that follow the header
	// (the sketch's Len).
	Entries int
}

// readSketchHeader decodes and validates the header fields from br.
func readSketchHeader(br *binio.Reader) (*SketchHeader, error) {
	magic := br.Bytes(4)
	if br.Err != nil {
		return nil, fmt.Errorf("core: reading sketch header: %w", br.Err)
	}
	if string(magic) != sketchMagic {
		return nil, fmt.Errorf("core: bad sketch magic %q", magic)
	}
	version := br.U8()
	if version != sketchVersion {
		return nil, fmt.Errorf("core: unsupported sketch version %d", version)
	}
	h := &SketchHeader{}
	method := br.Str()
	h.Role = Role(br.U8())
	h.Seed = br.U32()
	h.Size = int(br.Uvarint())
	h.Numeric = br.U8() == 1
	h.SourceRows = int(br.Uvarint())
	count := br.Uvarint()
	if br.Err != nil {
		return nil, fmt.Errorf("core: reading sketch metadata: %w", br.Err)
	}
	const maxEntries = 1 << 28 // refuse absurd counts from corrupt input
	if count > maxEntries {
		return nil, fmt.Errorf("core: sketch claims %d entries", count)
	}
	// The method constant, not a substring: a sketch must not keep its
	// input alive.
	if h.Method = MethodOfCode(methodCodes[Method(method)]); h.Method == "" {
		return nil, fmt.Errorf("core: unknown method %q in sketch", method)
	}
	h.Entries = int(count)
	return h, nil
}

// ReadSketch deserializes a sketch written by WriteTo. It reads r to
// the end and parses the bytes in place: bytes after the sketch are an
// error, as is a numeric value that is ±Inf (no build stores one).
func ReadSketch(r io.Reader) (*Sketch, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading sketch: %w", err)
	}
	br := binio.NewReader(raw)
	h, err := readSketchHeader(br)
	if err != nil {
		return nil, err
	}
	// Every entry takes a 4-byte key hash and an 8-byte value, or at
	// least a 1-byte string length: a count the bytes left cannot hold
	// is refused before it sizes anything.
	perEntry := 5
	if h.Numeric {
		perEntry = 12
	}
	if h.Entries > br.Left()/perEntry {
		return nil, fmt.Errorf("core: sketch claims %d entries in %d bytes", h.Entries, br.Left())
	}
	s := &Sketch{
		Method:     h.Method,
		Role:       h.Role,
		Seed:       h.Seed,
		Size:       h.Size,
		Numeric:    h.Numeric,
		SourceRows: h.SourceRows,
		KeyHashes:  make([]uint32, h.Entries),
	}
	for i := range s.KeyHashes {
		s.KeyHashes[i] = br.U32()
	}
	if s.Numeric {
		s.Nums = make([]float64, h.Entries)
		for i := range s.Nums {
			s.Nums[i] = math.Float64frombits(br.U64())
		}
	} else {
		s.Strs = make([]string, h.Entries)
		for i := range s.Strs {
			s.Strs[i] = br.Str()
		}
	}
	if br.Err != nil {
		return nil, fmt.Errorf("core: reading sketch body: %w", br.Err)
	}
	if br.Left() > 0 {
		return nil, fmt.Errorf("core: %d bytes after the sketch", br.Left())
	}
	if err := CheckFinite(s); err != nil {
		return nil, err
	}
	return s, nil
}

// CheckFinite returns an error when a sketch stores ±Inf, which no build
// does (an infinite value is NULL): ReadSketch and Store.Put refuse it.
func CheckFinite(s *Sketch) error {
	for i, v := range s.Nums {
		if math.IsInf(v, 0) {
			return fmt.Errorf("core: sketch value %d is %v: a sketch never stores ±Inf", i, v)
		}
	}
	return nil
}
