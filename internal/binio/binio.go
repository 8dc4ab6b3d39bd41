// Package binio holds the little-endian binary codec shared by the
// sketch format (internal/core/encode.go), the packed record codec
// (internal/core/packed.go), the store manifest format
// (internal/store/manifest.go), and the segment files and their
// sections (internal/store/segment.go, keyindex.go, compress.go). Every
// format is built by appending to a byte slice and parsed in place: the
// Append helpers write, Reader walks a whole input with a sticky first
// error, and the At loaders read fixed offsets of mmap'd bytes.
package binio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// maxStrBytes caps length-prefixed strings so corrupt input cannot ask
// for absurd lengths.
const maxStrBytes = 1 << 24

// errField is the error of a field that is malformed or runs past the
// end of the input.
var errField = errors.New("malformed or truncated field")

// Reader walks a byte slice in place. A string is a substring of one
// string copy of the input, made at the first Str, so every string it
// reads shares that copy. The first bad field sets Err, and every read
// after it returns zero.
type Reader struct {
	b   []byte
	s   string // string(b), once a Str needs it
	off int
	Err error
}

// NewReader returns a Reader at the start of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Left returns the number of bytes not yet read.
func (r *Reader) Left() int { return len(r.b) - r.off }

// take steps over the next n bytes and returns where they start; ok is
// false when the input holds fewer.
func (r *Reader) take(n uint64) (at int, ok bool) {
	if r.Err == nil && n > uint64(r.Left()) {
		r.Err = errField
	}
	if r.Err != nil {
		return 0, false
	}
	r.off += int(n)
	return r.off - int(n), true
}

// Bytes returns the next n bytes, a subslice of the input.
func (r *Reader) Bytes(n int) []byte {
	if at, ok := r.take(uint64(n)); ok {
		return r.b[at:r.off]
	}
	return nil
}

func (r *Reader) U8() uint8 {
	if at, ok := r.take(1); ok {
		return r.b[at]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if at, ok := r.take(4); ok {
		return U32At(r.b, at)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if at, ok := r.take(8); ok {
		return U64At(r.b, at)
	}
	return 0
}

func (r *Reader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := UvarintAt(r.b, r.off)
	if n <= 0 {
		r.Err = errField
		return 0
	}
	r.off += n
	return v
}

// Str reads a string written by AppendStr, rejecting implausible
// lengths from corrupt input.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.Err == nil && n > maxStrBytes {
		r.Err = fmt.Errorf("string of %d bytes", n)
	}
	at, ok := r.take(n)
	if !ok || n == 0 {
		return ""
	}
	if r.s == "" {
		r.s = string(r.b)
	}
	return r.s[at:r.off]
}

// AppendU32 appends v to dst in little-endian order.
func AppendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// AppendU64 appends v to dst in little-endian order.
func AppendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendUvarint appends v to dst as an unsigned LEB128 varint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendStr appends a varint length prefix followed by the raw bytes.
func AppendStr(dst []byte, s string) []byte {
	return append(AppendUvarint(dst, uint64(len(s))), s...)
}

// PutU32 stores v at b[0:4] in little-endian order.
func PutU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }

// U32At loads the little-endian uint32 at b[off:off+4].
func U32At(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }

// U64At loads the little-endian uint64 at b[off:off+8].
func U64At(b []byte, off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }

// UvarintAt decodes the unsigned LEB128 varint at b[off:], returning
// the value and the number of bytes it occupies. n <= 0 reports corrupt
// or truncated input (the binary.Uvarint contract), never a panic —
// callers walking untrusted mmap'd bytes branch on it. It makes no call,
// so it inlines into the walks over posting lists and MANIFEST entries.
func UvarintAt(b []byte, off int) (v uint64, n int) {
	for shift := uint(0); uint(off+n) < uint(len(b)); shift += 7 {
		if shift == 70 {
			return 0, -(n + 1) // an eleventh byte: overflow
		}
		c := b[off+n]
		n++
		if c < 0x80 {
			if shift == 63 && c > 1 {
				return 0, -n // overflow
			}
			return v | uint64(c)<<shift, n
		}
		v |= uint64(c&0x7f) << shift
	}
	return 0, 0
}

// AppendPad appends zero bytes until len(dst) is a multiple of align (a
// power of two).
func AppendPad(dst []byte, align int) []byte {
	for len(dst)%align != 0 {
		dst = append(dst, 0)
	}
	return dst
}
