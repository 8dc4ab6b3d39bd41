// Package binio holds the little-endian binary codec helpers shared by
// the sketch format (internal/core/encode.go), the packed record codec
// (internal/core/packed.go), the store manifest format
// (internal/store/manifest.go), and the segment files
// (internal/store/segment.go): sticky first-error tracking, byte
// counting on the write side, length-prefixed strings with a corruption
// cap on the read side, and raw in-buffer primitives for formats that
// are assembled in memory before hitting disk.
package binio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// maxStrBytes caps length-prefixed strings so corrupt input cannot ask
// for absurd allocations.
const maxStrBytes = 1 << 24

// Writer writes primitives, tracking bytes written and the first error.
type Writer struct {
	W   io.Writer
	N   int64
	Err error
}

func (w *Writer) Bytes(b []byte) {
	if w.Err != nil {
		return
	}
	n, err := w.W.Write(b)
	w.N += int64(n)
	w.Err = err
}

func (w *Writer) U8(v uint8) { w.Bytes([]byte{v}) }

func (w *Writer) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Bytes(b[:])
}

func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Bytes(b[:])
}

func (w *Writer) Uvarint(v uint64) {
	var b [binary.MaxVarintLen64]byte
	w.Bytes(b[:binary.PutUvarint(b[:], v)])
}

// Str writes a varint length prefix followed by the raw bytes.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.Bytes([]byte(s))
}

// Reader reads primitives, tracking the first error. Short input
// surfaces as an error on the field it truncates.
type Reader struct {
	R   *bufio.Reader
	Err error
}

func (r *Reader) Bytes(n int) []byte {
	if r.Err != nil {
		return nil
	}
	b := make([]byte, n)
	_, r.Err = io.ReadFull(r.R, b)
	return b
}

func (r *Reader) U8() uint8 {
	b := r.Bytes(1)
	if r.Err != nil {
		return 0
	}
	return b[0]
}

func (r *Reader) U32() uint32 {
	b := r.Bytes(4)
	if r.Err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.Bytes(8)
	if r.Err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *Reader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.R)
	r.Err = err
	return v
}

// Str reads a string written by Writer.Str, rejecting implausible
// lengths from corrupt input.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.Err != nil {
		return ""
	}
	if n > maxStrBytes {
		r.Err = fmt.Errorf("string of %d bytes", n)
		return ""
	}
	return string(r.Bytes(int(n)))
}

// --- Raw in-buffer primitives ---------------------------------------------
//
// The packed record and segment formats are assembled in memory (the
// whole record must exist before its CRC can be computed) and read back
// from mmap'd byte slices, so they use plain append/load helpers instead
// of the io-based Writer/Reader above. All little-endian.

// AppendU32 appends v to dst in little-endian order.
func AppendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// AppendU64 appends v to dst in little-endian order.
func AppendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// PutU32 stores v at b[0:4] in little-endian order.
func PutU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }

// U32At loads the little-endian uint32 at b[off:off+4].
func U32At(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }

// U64At loads the little-endian uint64 at b[off:off+8].
func U64At(b []byte, off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }

// AppendUvarint appends v to dst as an unsigned LEB128 varint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// UvarintAt decodes the unsigned LEB128 varint at b[off:], returning
// the value and the number of bytes it occupies. n <= 0 reports corrupt
// or truncated input (the binary.Uvarint contract), never a panic —
// callers walking untrusted mmap'd bytes branch on it. The one-byte case
// — nearly every posting delta and multiplicity of a key index — is
// decided inline; the general case stays out of line.
func UvarintAt(b []byte, off int) (v uint64, n int) {
	if uint(off) < uint(len(b)) && b[off] < 0x80 {
		return uint64(b[off]), 1
	}
	return uvarintSlow(b, off)
}

func uvarintSlow(b []byte, off int) (uint64, int) {
	if off < 0 || off > len(b) {
		return 0, 0
	}
	return binary.Uvarint(b[off:])
}

// AppendPad appends zero bytes until len(dst) is a multiple of align (a
// power of two).
func AppendPad(dst []byte, align int) []byte {
	for len(dst)%align != 0 {
		dst = append(dst, 0)
	}
	return dst
}
