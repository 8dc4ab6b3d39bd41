package core

// Compressed packed records: the layout revision compaction writes when
// a store opts into segment compression. A compressed record keeps the
// 40-byte header of packed.go bit-for-bit (so header-only readers —
// replay, indexing, manifest rebuild — need no decoder) and sets flags
// bit2; its arrays are packed against two per-segment dictionaries the
// encoder and decoder share:
//
//   - a sorted array of the segment's distinct key hashes: each record
//     stores its KeyHashes as uvarint ordinals into it, so the hashes
//     the segment's records repeat (the common case — candidates drawn
//     from the same key universe) cost 1–2 bytes instead of 4;
//   - an FSST symbol table (internal/fsst) trained over the segment's
//     categorical values: each value is stored as its own independently
//     decodable compressed blob.
//
// Compressed payloads (strBytes at header offset 36 is redefined as the
// byte length of the uvarint-packed region):
//
//	numeric:     nums f64×entries | keyRef uvarint×entries
//	categorical: keyRef uvarint×entries | valLen uvarint×entries |
//	             fsst blobs, back to back
//
// The numeric value array stays raw and 8-aligned at the payload start,
// so the zero-copy borrow of packed.go still applies to it; the
// memoized ascending value order of raw records is dropped (it is
// recomputed lazily and deterministically by NumValOrder, so rankings
// are unchanged). Records that would not shrink — adversarial strings,
// hashes missing from the dictionary — are written raw inside the
// compressed segment; the flag bit decides per record at decode time.
//
// Unlike raw records, compressed records verify their CRC on every
// decode: they are decode-and-copy anyway (the arrays are varint
// packed), the check is cheap relative to that, and it turns a flipped
// bit in a blob into a hard error instead of a silently different
// value.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"unsafe"

	"misketch/internal/binio"
	"misketch/internal/fsst"
)

// RecordCompressor encodes sketches against a segment's key dictionary
// and symbol table. Not safe for concurrent use (it reuses scratch
// buffers); compaction drives one per output segment.
type RecordCompressor struct {
	keyDict []uint32 // sorted ascending, distinct
	table   *fsst.Table
	payload []byte
	blob    []byte
}

// NewRecordCompressor builds a compressor over a sorted distinct
// key-hash dictionary and a trained symbol table (nil means an empty
// table: categorical values escape byte by byte and records fall back
// to raw when that does not pay).
func NewRecordCompressor(keyDict []uint32, table *fsst.Table) *RecordCompressor {
	if table == nil {
		table = &fsst.Table{}
	}
	return &RecordCompressor{keyDict: keyDict, table: table}
}

// Decoder returns the matching decoder (segment seal uses it to read
// its own records back for key indexing).
func (c *RecordCompressor) Decoder() *RecordDecoder {
	return NewRecordDecoder(c.keyDict, c.table)
}

// keyRef returns h's ordinal in the dictionary.
func (c *RecordCompressor) keyRef(h uint32) (int, bool) {
	i := sort.Search(len(c.keyDict), func(j int) bool { return c.keyDict[j] >= h })
	if i < len(c.keyDict) && c.keyDict[i] == h {
		return i, true
	}
	return 0, false
}

// RawRecordSize returns the encoded size of the *raw* packed record for
// (name, s) without encoding it — the fallback comparison compression
// runs per record, and the raw-equivalent byte counter segments report
// for observability.
func RawRecordSize(name string, s *Sketch) int {
	n := s.Len()
	var payload int
	if s.Numeric {
		payload = 16 * n
	} else {
		strBytes := 0
		for _, v := range s.Strs {
			strBytes += len(v)
		}
		payload = 4*(n+1) + 4*n + strBytes
	}
	sz := recHeaderBytes + payload + len(name)
	return (sz + 7) &^ 7
}

// AppendRecordCompressed appends the compressed encoding of (name, s)
// to dst when that encoding is strictly smaller than the raw one, and
// the raw encoding otherwise; the bool reports which was written. A nil
// compressor always writes raw.
func AppendRecordCompressed(dst []byte, name string, s *Sketch, c *RecordCompressor) ([]byte, bool, error) {
	if c == nil {
		out, err := AppendRecord(dst, name, s)
		return out, false, err
	}
	if len(dst)%8 != 0 {
		return nil, false, fmt.Errorf("core: record start %d not 8-byte aligned", len(dst))
	}
	if s.Len() > maxRecordEntries {
		return nil, false, fmt.Errorf("core: sketch has %d entries", s.Len())
	}
	code, ok := methodCodes[s.Method]
	if !ok {
		return nil, false, fmt.Errorf("core: unknown sketch method %q", s.Method)
	}

	n := s.Len()
	p := c.payload[:0]
	refsOK := true
	for _, h := range s.KeyHashes {
		ord, ok := c.keyRef(h)
		if !ok {
			refsOK = false
			break
		}
		p = binio.AppendUvarint(p, uint64(ord))
	}
	if !refsOK {
		c.payload = p
		out, err := AppendRecord(dst, name, s)
		return out, false, err
	}
	fixed := 0
	if s.Numeric {
		fixed = 8 * n
	} else {
		blob := c.blob[:0]
		for _, v := range s.Strs {
			before := len(blob)
			blob = c.table.Encode(blob, v)
			p = binio.AppendUvarint(p, uint64(len(blob)-before))
		}
		p = append(p, blob...)
		c.blob = blob
	}
	c.payload = p

	size := recHeaderBytes + fixed + len(p) + len(name)
	size = (size + 7) &^ 7
	if size >= RawRecordSize(name, s) {
		out, err := AppendRecord(dst, name, s)
		return out, false, err
	}

	var flags uint8 = recFlagCompressed
	if s.HasDuplicateKeyHashes() {
		flags |= recFlagDupKeys
	}
	start := len(dst)
	dst = append(dst, make([]byte, 8)...) // crc + recLen, patched below
	dst = append(dst, RecordSketch, uint8(s.Role), b2u8(s.Numeric), code, flags, 0, 0, 0)
	dst = binio.AppendU32(dst, s.Seed)
	dst = binio.AppendU32(dst, uint32(s.Size))
	dst = binio.AppendU32(dst, uint32(n))
	dst = binio.AppendU32(dst, uint32(s.SourceRows))
	dst = binio.AppendU32(dst, uint32(len(name)))
	dst = binio.AppendU32(dst, uint32(len(p)))
	if s.Numeric {
		for _, v := range s.Nums {
			dst = binio.AppendU64(dst, math.Float64bits(v))
		}
	}
	dst = append(dst, p...)
	dst = append(dst, name...)
	dst = binio.AppendPad(dst, 8)
	binio.PutU32(dst[start+4:], uint32(len(dst)-start))
	binio.PutU32(dst[start:], RecordCRC(dst[start+8:]))
	return dst, true, nil
}

// RecordDecoder decodes compressed records against the segment
// dictionaries they were encoded with. Safe for concurrent use (it is
// read-only).
type RecordDecoder struct {
	keyDict []uint32
	table   *fsst.Table
}

// NewRecordDecoder builds a decoder over the segment's key dictionary
// and symbol table.
func NewRecordDecoder(keyDict []uint32, table *fsst.Table) *RecordDecoder {
	if table == nil {
		table = &fsst.Table{}
	}
	return &RecordDecoder{keyDict: keyDict, table: table}
}

// appendKeyRefs appends the hashes of the key refs that open the
// compressed record h's uvarint-packed region and returns the bytes they
// took. A numeric record's region follows its values and holds nothing
// else.
func (d *RecordDecoder) appendKeyRefs(dst []uint32, h []byte, info RecordInfo) ([]uint32, int, error) {
	at := recHeaderBytes
	if info.Numeric {
		at += 8 * info.Entries
	}
	p, pos := h[at:at+int(binio.U32At(h, 36))], 0
	for i := 0; i < info.Entries; i++ {
		v, c := binio.UvarintAt(p, pos)
		if c <= 0 {
			return dst, 0, fmt.Errorf("key ref %d truncated", i)
		}
		if v >= uint64(len(d.keyDict)) {
			return dst, 0, fmt.Errorf("key ref %d = %d beyond dictionary (%d keys)", i, v, len(d.keyDict))
		}
		dst = append(dst, d.keyDict[v])
		pos += c
	}
	if info.Numeric && pos != len(p) {
		return dst, 0, fmt.Errorf("%d trailing bytes after key refs", len(p)-pos)
	}
	return dst, pos, nil
}

// AppendKeyHashes appends the key hashes of the sketch record at
// data[off] to dst and decodes nothing else: a raw record's key column
// is read where it lies, a compressed record's refs go through dec's
// dictionary after the CRC check its full decode makes.
func AppendKeyHashes(dec *RecordDecoder, dst []uint32, data []byte, off int) ([]uint32, error) {
	info, err := DecodeRecordInfo(data, off)
	if err != nil {
		return dst, err
	}
	if info.Kind != RecordSketch {
		return dst, fmt.Errorf("core: record at %d is not a sketch", off)
	}
	h, n := data[off:off+info.Len], info.Entries
	if !info.Compressed {
		at := recHeaderBytes + 8*n
		if !info.Numeric {
			at = recHeaderBytes + 4*(n+1)
		}
		for i := 0; i < n; i++ {
			dst = append(dst, binio.U32At(h, at+4*i))
		}
		return dst, nil
	}
	if dec == nil {
		return dst, fmt.Errorf("core: compressed record at %d has no segment decoder", off)
	}
	if err := checkCRC(data, off, info.Len); err != nil {
		return dst, err
	}
	if dst, _, err = dec.appendKeyRefs(dst, h, info); err != nil {
		return dst, fmt.Errorf("core: record at %d: %w", off, err)
	}
	return dst, nil
}

// decodeScratch is what decoding one categorical record needs and its
// Sketch does not keep. Pooled: a rank over a compressed catalog decodes
// tens of records per query, and these — the map above all — were most
// of what it allocated.
type decodeScratch struct {
	lens     []int             // value lengths
	interned map[string]string // compressed blob → decoded value
	buf      []byte            // FSST output
}

var decodeScratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// release returns sc to the pool empty — and small: clearing a map costs
// its capacity, which one huge record must not make every later decode
// pay.
func (sc *decodeScratch) release() {
	const maxPooled = 4096
	if len(sc.interned) > maxPooled || cap(sc.lens) > maxPooled {
		*sc = decodeScratch{}
	}
	clear(sc.interned)
	decodeScratchPool.Put(sc)
}

// decodeCompressed decodes the body of a compressed record whose frame
// rec already carries. Compressed arrays are materialized (owned) —
// only the raw numeric value array honors borrow.
func decodeCompressed(dec *RecordDecoder, data []byte, off int, rec Record, borrow bool) (Record, error) {
	if dec == nil {
		return Record{}, fmt.Errorf("core: compressed record at %d has no segment decoder", off)
	}
	info := rec.RecordInfo
	if err := checkCRC(data, off, info.Len); err != nil {
		return Record{}, err
	}
	h := data[off : off+info.Len]
	n := info.Entries
	flags := h[12]
	s := &Sketch{
		Method:     info.Method,
		Role:       info.Role,
		Seed:       info.Seed,
		Size:       info.Size,
		Numeric:    info.Numeric,
		SourceRows: info.SourceRows,
	}
	if flags&recFlagDupKeys != 0 {
		s.dupKeys.Store(dupKeysYes)
	} else {
		s.dupKeys.Store(dupKeysNo)
	}
	keys, pos, err := dec.appendKeyRefs(make([]uint32, 0, n), h, info)
	if err != nil {
		return Record{}, fmt.Errorf("core: record at %d: %w", off, err)
	}
	s.KeyHashes = keys
	if info.Numeric {
		nums := h[recHeaderBytes : recHeaderBytes+8*n]
		if borrow && nativeLittleEndian && n > 0 {
			s.Nums = unsafe.Slice((*float64)(unsafe.Pointer(&nums[0])), n)
			rec.Borrowed = true
		} else {
			s.Nums = make([]float64, n)
			for i := range s.Nums {
				s.Nums[i] = math.Float64frombits(binio.U64At(nums, 8*i))
			}
		}
		// The ascending value order is not persisted in compressed
		// records; NumValOrder recomputes it lazily and deterministically.
	} else {
		payload := h[recHeaderBytes : recHeaderBytes+int(binio.U32At(h, 36))]
		sc := decodeScratchPool.Get().(*decodeScratch)
		defer sc.release()
		lens := slices.Grow(sc.lens[:0], n)[:n]
		total := 0
		for i := 0; i < n; i++ {
			v, c := binio.UvarintAt(payload, pos)
			if c <= 0 {
				return Record{}, fmt.Errorf("core: record at %d: value length %d truncated", off, i)
			}
			if v > uint64(len(payload)) {
				return Record{}, fmt.Errorf("core: record at %d: value %d has implausible length %d", off, i, v)
			}
			lens[i] = int(v)
			total += int(v)
			pos += c
		}
		blob := payload[pos:]
		if total != len(blob) {
			return Record{}, fmt.Errorf("core: record at %d: blob is %d bytes, values claim %d", off, len(blob), total)
		}
		s.Strs = make([]string, n)
		// Intern per distinct compressed blob: a repeated value decodes
		// (and allocates) once per record, not once per row.
		if sc.interned == nil {
			sc.interned = make(map[string]string, 64)
		}
		interned, buf := sc.interned, sc.buf
		bo, vb := 0, 0
		for i := 0; i < n; i++ {
			cs := blob[bo : bo+lens[i]]
			bo += lens[i]
			if v, ok := interned[string(cs)]; ok {
				s.Strs[i] = v
				continue
			}
			var err error
			buf, err = dec.table.Decode(buf[:0], cs)
			if err != nil {
				return Record{}, fmt.Errorf("core: record at %d: value %d: %w", off, i, err)
			}
			v := string(buf) // a copy: nothing pooled reaches the Sketch
			interned[string(cs)] = v
			s.Strs[i] = v
			vb += len(v)
		}
		sc.lens, sc.buf = lens, buf
		s.strBytes = int64(vb)
	}
	rec.Sketch = s
	return rec, nil
}
