package core

import (
	"bufio"
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
// Everything before the keyHashes array is the sketch header, which
// readSketchHeader decodes and validates before ReadSketch sizes the
// body by it. The store keeps the same metadata per sketch in its
// manifest (magic "MISX", internal/store/manifest.go) so discovery
// queries can filter candidates without decoding a record.

const (
	sketchMagic   = "MISK"
	sketchVersion = 1
)

// WriteTo serializes the sketch. It implements io.WriterTo.
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	buf := bufio.NewWriter(w)
	bw := &binio.Writer{W: buf}
	bw.Bytes([]byte(sketchMagic))
	bw.U8(sketchVersion)
	bw.Str(string(s.Method))
	bw.U8(uint8(s.Role))
	bw.U32(s.Seed)
	bw.Uvarint(uint64(s.Size))
	if s.Numeric {
		bw.U8(1)
	} else {
		bw.U8(0)
	}
	bw.Uvarint(uint64(s.SourceRows))
	bw.Uvarint(uint64(s.Len()))
	for _, hk := range s.KeyHashes {
		bw.U32(hk)
	}
	if s.Numeric {
		for _, v := range s.Nums {
			bw.U64(math.Float64bits(v))
		}
	} else {
		for _, v := range s.Strs {
			bw.Str(v)
		}
	}
	if bw.Err == nil {
		bw.Err = buf.Flush()
	}
	return bw.N, bw.Err
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
	h.Method = Method(br.Str())
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
	switch h.Method {
	case TUPSK, LV2SK, PRISK, INDSK, CSK:
	default:
		return nil, fmt.Errorf("core: unknown method %q in sketch", h.Method)
	}
	h.Entries = int(count)
	return h, nil
}

// ReadSketch deserializes a sketch written by WriteTo.
func ReadSketch(r io.Reader) (*Sketch, error) {
	br := &binio.Reader{R: bufio.NewReader(r)}
	h, err := readSketchHeader(br)
	if err != nil {
		return nil, err
	}
	s := &Sketch{
		Method:     h.Method,
		Role:       h.Role,
		Seed:       h.Seed,
		Size:       h.Size,
		Numeric:    h.Numeric,
		SourceRows: h.SourceRows,
	}
	count := h.Entries
	s.KeyHashes = make([]uint32, count)
	for i := range s.KeyHashes {
		s.KeyHashes[i] = br.U32()
	}
	if s.Numeric {
		s.Nums = make([]float64, count)
		for i := range s.Nums {
			s.Nums[i] = math.Float64frombits(br.U64())
		}
	} else {
		s.Strs = make([]string, count)
		for i := range s.Strs {
			s.Strs[i] = br.Str()
		}
	}
	if br.Err != nil {
		return nil, fmt.Errorf("core: reading sketch body: %w", br.Err)
	}
	return s, nil
}
