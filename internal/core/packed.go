package core

// Packed sketch records: the fixed-layout, alignment-guaranteed encoding
// segment files (internal/store/segment.go) store sketches in. Unlike
// the streamable MISK format (encode.go), whose varint headers leave the
// value arrays unaligned, a packed record places every array at its
// natural alignment relative to the record start — and records start at
// 8-byte offsets within a segment, whose mmap base is page-aligned — so
// a reader can decode a sketch *in place*: KeyHashes, Nums, and the
// memoized value order become unsafe slices over the mapped file, and
// categorical values become unsafe strings into it. Decoding a candidate
// then costs one struct allocation instead of a syscall-and-copy storm,
// which is what makes cold store ranking run at memory speed.
//
// Layout (little-endian, all offsets relative to the record start, which
// must be 8-byte aligned):
//
//	0   crc u32        CRC-32C over bytes [8, recLen)
//	4   recLen u32     total record bytes, a multiple of 8
//	8   kind u8        1 = sketch, 2 = tombstone
//	9   role u8
//	10  numeric u8
//	11  method u8      method code (see methodCodes); 0 for tombstones
//	12  flags u8       bit0: sketch has duplicate key hashes
//	                   bit1: record carries the ascending value order
//	                   bit2: compressed layout revision (compress.go)
//	13  reserved u8×3
//	16  seed u32
//	20  size u32
//	24  entries u32
//	28  sourceRows u32
//	32  nameLen u32
//	36  strBytes u32   bytes of the string payload section (0 if numeric)
//	40  payload
//
// Numeric payload:   nums f64×entries | keyHashes u32×entries |
//	                  valOrder i32×entries (iff flags bit1) | name | pad8
// Categorical:       strOffsets u32×(entries+1) | keyHashes u32×entries |
//	                  string bytes | name | pad8
// Tombstone payload: name | pad8
//
// strOffsets[i] is the start of value i within the string bytes section;
// strOffsets[entries] is the section length. The per-record CRC lets a
// replaying reader detect a torn tail after a crash; it is NOT verified
// on the in-place decode path (ranking trusts sealed segments, whose
// whole-file CRC the store checks on repair instead).

import (
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"misketch/internal/binio"
)

// Record kinds.
const (
	RecordSketch    = 1
	RecordTombstone = 2
)

// Record flag bits.
const (
	recFlagDupKeys  = 1 << 0
	recFlagValOrder = 1 << 1
	// recFlagCompressed marks the compressed layout revision
	// (compress.go): arrays packed against per-segment dictionaries,
	// strBytes redefined as the packed-region length.
	recFlagCompressed = 1 << 2
)

// recHeaderBytes is the fixed prefix before the payload.
const recHeaderBytes = 40

// maxRecordEntries mirrors encode.go's corruption cap.
const maxRecordEntries = 1 << 28

// crcTable is the Castagnoli polynomial table shared by records and
// segment footers; hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// RecordCRC computes the record checksum over b (the record bytes past
// the crc and length fields).
func RecordCRC(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// methodCodes maps sketch methods to their packed-record code. Codes are
// part of the on-disk format: append only.
var methodCodes = map[Method]uint8{TUPSK: 1, LV2SK: 2, PRISK: 3, INDSK: 4, CSK: 5}

var methodOfCode = [...]Method{1: TUPSK, 2: LV2SK, 3: PRISK, 4: INDSK, 5: CSK}

// MethodOfCode returns the method of a packed-record code ("" for
// unknown codes).
func MethodOfCode(c uint8) Method {
	if int(c) < len(methodOfCode) {
		return methodOfCode[c]
	}
	return ""
}

// nativeLittleEndian reports whether the platform stores multi-byte
// integers little-endian; the zero-copy decode path requires it (the
// format itself is little-endian everywhere).
var nativeLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// AppendRecord appends the packed record encoding of (name, s) to dst,
// which must be 8-byte aligned at its current length (records are
// written back to back, and every record's length is a multiple of 8).
// The sketch's ascending value order and duplicate-key answer are
// computed here and persisted, so decoded views skip both.
func AppendRecord(dst []byte, name string, s *Sketch) ([]byte, error) {
	if len(dst)%8 != 0 {
		return nil, fmt.Errorf("core: record start %d not 8-byte aligned", len(dst))
	}
	if s.Len() > maxRecordEntries {
		return nil, fmt.Errorf("core: sketch has %d entries", s.Len())
	}
	code, ok := methodCodes[s.Method]
	if !ok {
		return nil, fmt.Errorf("core: unknown sketch method %q", s.Method)
	}
	var flags uint8
	if s.HasDuplicateKeyHashes() {
		flags |= recFlagDupKeys
	}
	valOrder := s.NumValOrder()
	if valOrder != nil {
		flags |= recFlagValOrder
	}
	n := s.Len()
	strBytes := 0
	for _, v := range s.Strs {
		strBytes += len(v)
	}

	start := len(dst)
	dst = append(dst, make([]byte, 8)...) // crc + recLen, patched below
	dst = append(dst, RecordSketch, uint8(s.Role), b2u8(s.Numeric), code, flags, 0, 0, 0)
	dst = binio.AppendU32(dst, s.Seed)
	dst = binio.AppendU32(dst, uint32(s.Size))
	dst = binio.AppendU32(dst, uint32(n))
	dst = binio.AppendU32(dst, uint32(s.SourceRows))
	dst = binio.AppendU32(dst, uint32(len(name)))
	dst = binio.AppendU32(dst, uint32(strBytes))
	if s.Numeric {
		for _, v := range s.Nums {
			dst = binio.AppendU64(dst, math.Float64bits(v))
		}
	} else {
		off := uint32(0)
		for _, v := range s.Strs {
			dst = binio.AppendU32(dst, off)
			off += uint32(len(v))
		}
		dst = binio.AppendU32(dst, off)
	}
	for _, hk := range s.KeyHashes {
		dst = binio.AppendU32(dst, hk)
	}
	if s.Numeric {
		for _, i := range valOrder {
			dst = binio.AppendU32(dst, uint32(i))
		}
		// A numeric sketch with NaN values has no defined order; encode
		// zeros so the layout stays fixed, and leave the flag unset.
		if valOrder == nil {
			dst = append(dst, make([]byte, 4*n)...)
		}
	} else {
		for _, v := range s.Strs {
			dst = append(dst, v...)
		}
	}
	dst = append(dst, name...)
	dst = binio.AppendPad(dst, 8)
	binio.PutU32(dst[start+4:], uint32(len(dst)-start))
	binio.PutU32(dst[start:], RecordCRC(dst[start+8:]))
	return dst, nil
}

// AppendTombstone appends a packed tombstone record for name: a durable
// marker that the named sketch was deleted, folded away by compaction.
func AppendTombstone(dst []byte, name string) ([]byte, error) {
	if len(dst)%8 != 0 {
		return nil, fmt.Errorf("core: record start %d not 8-byte aligned", len(dst))
	}
	start := len(dst)
	dst = append(dst, make([]byte, 8)...)
	dst = append(dst, RecordTombstone, 0, 0, 0, 0, 0, 0, 0)
	dst = binio.AppendU32(dst, 0) // seed
	dst = binio.AppendU32(dst, 0) // size
	dst = binio.AppendU32(dst, 0) // entries
	dst = binio.AppendU32(dst, 0) // sourceRows
	dst = binio.AppendU32(dst, uint32(len(name)))
	dst = binio.AppendU32(dst, 0) // strBytes
	dst = append(dst, name...)
	dst = binio.AppendPad(dst, 8)
	binio.PutU32(dst[start+4:], uint32(len(dst)-start))
	binio.PutU32(dst[start:], RecordCRC(dst[start+8:]))
	return dst, nil
}

// RecordInfo is the header of a packed record: everything except the
// sketch body, decoded without materializing any array — the currency of
// segment replay and manifest rebuild, where thousands of records are
// indexed but none estimated.
type RecordInfo struct {
	Kind int    // RecordSketch or RecordTombstone
	Name string // always an owned copy, safe to retain as a map key
	Len  int    // total encoded record length in bytes

	// Sketch metadata (zero for tombstones).
	Method     Method
	Role       Role
	Seed       uint32
	Size       int
	Numeric    bool
	SourceRows int
	Entries    int
	// Compressed marks the compressed layout revision (compress.go):
	// decoding the body needs the segment's RecordDecoder.
	Compressed bool
}

// Record is one decoded packed record.
type Record struct {
	RecordInfo
	// Sketch is nil for tombstones.
	Sketch *Sketch
	// Borrowed reports that Sketch aliases the input buffer, which must
	// then outlive it: a raw record decoded with borrow on a
	// little-endian host, or a compressed numeric record's value array.
	Borrowed bool
}

// DecodeRecord decodes the packed record starting at data[off].
//
// With borrow=true the sketch is a zero-copy view: KeyHashes, Nums, the
// memoized value order, and (via unsafe strings) Strs alias data, which
// must stay mapped and unmodified for the sketch's lifetime. Callers
// are responsible for that lifetime — the store pins a segment's mapping
// while any query borrows from it. On big-endian platforms borrowing
// falls back to copying decode (the arrays would need byte swaps), so
// borrow=true is a permission, not a guarantee: Record.Borrowed says
// whether the sketch took it.
//
// With borrow=false the sketch owns all its memory.
//
// The record CRC is NOT verified here; call VerifyRecord where torn or
// rotted input is a possibility (replay, repair). Compressed records
// (which need a segment decoder — see DecodeRecordWith) fail closed.
func DecodeRecord(data []byte, off int, borrow bool) (Record, error) {
	return DecodeRecordWith(nil, data, off, borrow)
}

// DecodeRecordWith is DecodeRecord plus the segment RecordDecoder that
// compressed records require; raw records decode identically under
// either entry point (a nil decoder merely fails compressed records
// closed). Compressed bodies additionally verify the record CRC — they
// are materialized rather than borrowed, so the check is cheap and
// makes a flipped blob bit a hard error.
func DecodeRecordWith(dec *RecordDecoder, data []byte, off int, borrow bool) (Record, error) {
	info, err := DecodeRecordInfo(data, off)
	rec := Record{RecordInfo: info}
	if err != nil || rec.Kind == RecordTombstone {
		return rec, err
	}
	if info.Compressed {
		return decodeCompressed(dec, data, off, rec, borrow)
	}
	h := data[off : off+rec.Len]
	n := info.Entries
	numeric := info.Numeric
	flags := h[12]
	s := &Sketch{
		Method:     info.Method,
		Role:       info.Role,
		Seed:       info.Seed,
		Size:       info.Size,
		Numeric:    numeric,
		SourceRows: info.SourceRows,
	}
	if flags&recFlagDupKeys != 0 {
		s.dupKeys.Store(dupKeysYes)
	} else {
		s.dupKeys.Store(dupKeysNo)
	}
	strBytes := int(binio.U32At(h, 36))
	borrow = borrow && nativeLittleEndian
	rec.Borrowed = borrow
	if numeric {
		nums := h[recHeaderBytes : recHeaderBytes+8*n]
		keys := h[recHeaderBytes+8*n : recHeaderBytes+12*n]
		order := h[recHeaderBytes+12*n : recHeaderBytes+16*n]
		if borrow {
			if n > 0 {
				s.Nums = unsafe.Slice((*float64)(unsafe.Pointer(&nums[0])), n)
				s.KeyHashes = unsafe.Slice((*uint32)(unsafe.Pointer(&keys[0])), n)
			} else {
				s.Nums, s.KeyHashes = []float64{}, []uint32{}
			}
		} else {
			s.Nums = make([]float64, n)
			s.KeyHashes = make([]uint32, n)
			for i := range s.Nums {
				s.Nums[i] = math.Float64frombits(binio.U64At(nums, 8*i))
				s.KeyHashes[i] = binio.U32At(keys, 4*i)
			}
		}
		if flags&recFlagValOrder != 0 {
			var vo []int32
			if borrow && n > 0 {
				vo = unsafe.Slice((*int32)(unsafe.Pointer(&order[0])), n)
			} else {
				vo = make([]int32, n)
				for i := range vo {
					vo[i] = int32(binio.U32At(order, 4*i))
				}
			}
			s.valOrder.Store(&vo)
		}
	} else {
		offs := h[recHeaderBytes : recHeaderBytes+4*(n+1)]
		keys := h[recHeaderBytes+4*(n+1) : recHeaderBytes+4*(n+1)+4*n]
		strs := h[recHeaderBytes+4*(n+1)+4*n : recHeaderBytes+4*(n+1)+4*n+strBytes]
		if borrow && n > 0 {
			s.KeyHashes = unsafe.Slice((*uint32)(unsafe.Pointer(&keys[0])), n)
		} else {
			s.KeyHashes = make([]uint32, n)
			for i := range s.KeyHashes {
				s.KeyHashes[i] = binio.U32At(keys, 4*i)
			}
		}
		s.Strs = make([]string, n)
		for i := range s.Strs {
			lo, hi := binio.U32At(offs, 4*i), binio.U32At(offs, 4*i+4)
			if lo > hi || int(hi) > strBytes {
				return Record{}, fmt.Errorf("core: record at %d: string %d spans [%d, %d) of %d", off, i, lo, hi, strBytes)
			}
			sec := strs[lo:hi]
			if borrow {
				if len(sec) > 0 {
					s.Strs[i] = unsafe.String(&sec[0], len(sec))
				}
			} else {
				s.Strs[i] = string(sec)
			}
		}
	}
	rec.Sketch = s
	return rec, nil
}

// DecodeRecordInfo validates the record frame at data[off] and decodes
// everything except the sketch body. It does not verify the CRC.
func DecodeRecordInfo(data []byte, off int) (RecordInfo, error) {
	if off%8 != 0 {
		return RecordInfo{}, fmt.Errorf("core: record offset %d not 8-byte aligned", off)
	}
	if off < 0 || off+recHeaderBytes > len(data) {
		return RecordInfo{}, fmt.Errorf("core: record at %d truncated", off)
	}
	h := data[off:]
	recLen := int(binio.U32At(h, 4))
	if recLen < recHeaderBytes || recLen%8 != 0 || off+recLen > len(data) {
		return RecordInfo{}, fmt.Errorf("core: record at %d has implausible length %d", off, recLen)
	}
	h = h[:recLen]
	info := RecordInfo{
		Kind:       int(h[8]),
		Len:        recLen,
		Role:       Role(h[9]),
		Numeric:    h[10] == 1,
		Seed:       binio.U32At(h, 16),
		Size:       int(binio.U32At(h, 20)),
		Entries:    int(binio.U32At(h, 24)),
		SourceRows: int(binio.U32At(h, 28)),
	}
	n := info.Entries
	nameLen := int(binio.U32At(h, 32))
	strBytes := int(binio.U32At(h, 36))
	if n > maxRecordEntries || nameLen > recLen || strBytes > recLen {
		return RecordInfo{}, fmt.Errorf("core: record at %d has implausible sizes (%d entries, %d name, %d str)", off, n, nameLen, strBytes)
	}
	var payload int
	switch info.Kind {
	case RecordSketch:
		if h[11] == 0 || int(h[11]) >= len(methodOfCode) {
			return RecordInfo{}, fmt.Errorf("core: record at %d has unknown method code %d", off, h[11])
		}
		info.Method = methodOfCode[h[11]]
		info.Compressed = h[12]&recFlagCompressed != 0
		switch {
		case info.Compressed && info.Numeric:
			payload = 8*n + strBytes // raw nums + packed key refs
		case info.Compressed:
			payload = strBytes // packed refs + value lengths + blobs
		case info.Numeric:
			payload = 16 * n // nums + keyHashes + valOrder slots
		default:
			payload = 4*(n+1) + 4*n + strBytes
		}
	case RecordTombstone:
		payload = 0
	default:
		return RecordInfo{}, fmt.Errorf("core: record at %d has unknown kind %d", off, info.Kind)
	}
	if recHeaderBytes+payload+nameLen > recLen {
		return RecordInfo{}, fmt.Errorf("core: record at %d overflows its frame (%d+%d+%d > %d)", off, recHeaderBytes, payload, nameLen, recLen)
	}
	info.Name = string(h[recHeaderBytes+payload : recHeaderBytes+payload+nameLen])
	return info, nil
}

// VerifyRecord checks the frame and CRC of the record at data[off] and
// returns its total length. It is the torn-write and bit-rot detector
// used when replaying a segment tail after a crash and when verifying.
func VerifyRecord(data []byte, off int) (int, error) {
	info, err := DecodeRecordInfo(data, off)
	if err != nil {
		return 0, err
	}
	return info.Len, checkCRC(data, off, info.Len)
}

// checkCRC checks the CRC of the record at data[off], whose frame of
// length recLen DecodeRecordInfo has validated.
func checkCRC(data []byte, off, recLen int) error {
	want := binio.U32At(data[off:], 0)
	if got := RecordCRC(data[off+8 : off+recLen]); got != want {
		return fmt.Errorf("core: record at %d fails CRC (%08x != %08x)", off, got, want)
	}
	return nil
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
