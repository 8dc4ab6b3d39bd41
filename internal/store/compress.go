package store

// Segment compression dictionaries: the per-segment section compaction
// emits when the store opts into compression (OpenOptions.Compression),
// holding everything a reader needs to decode the segment's compressed
// records (internal/core/compress.go):
//
//   - the sorted distinct key-hash dictionary, delta-coded as uvarints
//     (records store key hashes as ordinals into it);
//   - the FSST symbol table trained over the segment's categorical
//     values;
//   - the segment's compressed-vs-raw-equivalent byte counters, so
//     observability (StoreStats, `store ls -segments`) can report the
//     achieved ratio without decoding anything.
//
// Section layout, framed as the key index section is:
//
//	header (16 B): the section frame (segment.go), magic "MCMP", version 1
//	payload:       rawBytes u64 | compBytes u64 |
//	               nKeys uvarint | key-hash deltas uvarint × nKeys |
//	               symbol table (fsst serialization)
//
// Parsing is fail-closed: any defect — bad magic, unknown version or
// flags, truncation, CRC mismatch, unsorted keys — leaves the segment
// without a decoder, and decoding any compressed record in it becomes
// a hard error surfaced to the query (never a silently wrong sketch).
// The section sits before the footer, inside the segment's whole-file
// CRC.

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"misketch/internal/binio"
	"misketch/internal/core"
	"misketch/internal/fsst"
)

// dictFrame frames the dict section (segment.go).
var dictFrame = sectionFrame{name: "dict section", magic: "MCMP", version: 1}

// segCompressor drives one compacted segment's compression: the record
// compressor plus the running byte counters the dict section persists.
type segCompressor struct {
	enc       *core.RecordCompressor
	keyDict   []uint32
	table     *fsst.Table
	rawBytes  uint64 // raw-equivalent bytes of the records written
	compBytes uint64 // bytes actually written for those records
}

// trainSegCompressor builds the dictionaries over the records about to
// be compacted: the sorted distinct union of their key hashes and a
// symbol table trained on their categorical values. values may be
// clipped by the caller; fsst samples internally anyway.
func trainSegCompressor(keys map[uint32]struct{}, values []string) *segCompressor {
	dict := make([]uint32, 0, len(keys))
	for h := range keys {
		dict = append(dict, h)
	}
	sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
	table := fsst.Train(values)
	return &segCompressor{enc: core.NewRecordCompressor(dict, table), keyDict: dict, table: table}
}

// appendSection appends the dict section, header included, to dst.
func (c *segCompressor) appendSection(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, sectionHeaderBytes)...)
	dst = binio.AppendU64(dst, c.rawBytes)
	dst = binio.AppendU64(dst, c.compBytes)
	dst = binio.AppendUvarint(dst, uint64(len(c.keyDict)))
	prev := uint32(0)
	for _, h := range c.keyDict {
		dst = binio.AppendUvarint(dst, uint64(h-prev))
		prev = h
	}
	dst = c.table.Append(dst)
	dictFrame.putHeader(dst[start:])
	return dst
}

// trainCompressor decodes the live records once to build the output
// segment's dictionaries: the distinct union of their key hashes and a
// value sample for the symbol table, cloned out of the views of the one
// buffer readSource reuses. The caller holds pins on the sources.
func trainCompressor(ctx context.Context, live []Meta, sources map[uint64]*segment) (*segCompressor, error) {
	const valueSampleCap = 1 << 16
	keys := make(map[uint32]struct{})
	var values []string
	valueBytes := 0
	var raw []byte
	for _, m := range live {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		src, err := readSource(sources, &raw, m)
		if err != nil {
			return nil, err
		}
		rec, err := core.DecodeRecordWith(src.decoder(), raw, 0, true)
		if err != nil {
			return nil, fmt.Errorf("store: training compressor on %q: %w", m.Name, err)
		}
		if rec.Sketch == nil {
			continue
		}
		for _, h := range rec.Sketch.KeyHashes {
			keys[h] = struct{}{}
		}
		if valueBytes < valueSampleCap {
			for _, v := range rec.Sketch.Strs {
				values = append(values, strings.Clone(v))
				valueBytes += len(v)
				if valueBytes >= valueSampleCap {
					break
				}
			}
		}
	}
	return trainSegCompressor(keys, values), nil
}

// segDict is a parsed dict section: the segment's record decoder plus
// its persisted byte counters.
type segDict struct {
	dec       *core.RecordDecoder
	rawBytes  uint64
	compBytes uint64
}

// parseDictSection validates and decodes a dict section. Fail-closed:
// every defect is an error, and the caller records the segment as
// undecodable rather than guessing.
func parseDictSection(section []byte) (*segDict, error) {
	payload, err := dictFrame.openSection(section, false, true)
	if err != nil {
		return nil, err
	}
	r := binio.NewReader(payload)
	d := &segDict{rawBytes: r.U64(), compBytes: r.U64()}
	nKeys := r.Uvarint()
	if r.Err != nil || nKeys > uint64(len(payload)) {
		return nil, fmt.Errorf("store: implausible dict key count %d", nKeys)
	}
	dict := make([]uint32, nKeys)
	prev := uint64(0)
	for i := range dict {
		delta := r.Uvarint()
		h := prev + delta
		switch {
		case r.Err != nil:
			return nil, fmt.Errorf("store: dict key %d truncated", i)
		case i > 0 && delta == 0:
			return nil, fmt.Errorf("store: dict key %d repeats", i)
		case h > 0xFFFFFFFF:
			return nil, fmt.Errorf("store: dict key %d overflows", i)
		}
		dict[i] = uint32(h)
		prev = h
	}
	rest := r.Bytes(r.Left())
	table, n, err := fsst.Parse(rest)
	if err != nil {
		return nil, err
	}
	if n != len(rest) {
		return nil, fmt.Errorf("store: %d trailing dict payload bytes", len(rest)-n)
	}
	d.dec = core.NewRecordDecoder(dict, table)
	return d, nil
}
