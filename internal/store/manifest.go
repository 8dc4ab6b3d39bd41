package store

// The manifest is the store's index: one metadata record per stored
// sketch plus the segment list, kept in memory while the store is open
// and persisted as a single checksummed file in the store root.
// Discovery queries filter candidates on it (seed, role, name, entry
// count) without touching segment pages; losing it is never fatal
// because it can be rebuilt by replaying the segments.
//
// Version 2 layout (little-endian, varint = unsigned LEB128):
//
//	magic "MISX" | version u8 = 2 | nextSeq uvarint |
//	segCount uvarint × { seq uvarint | kind u8 | covered uvarint } |
//	count uvarint × entry, sorted by name:
//	  name str | method str | role u8 | seed u32 | size varint |
//	  numeric u8 | sourceRows varint | entries varint |
//	  bytes varint | segment uvarint | offset uvarint |
//	crc u32 (CRC-32C of every preceding byte)
//
// str = varint length + raw bytes; the file is built by appending and
// parsed in place. The segment kind byte carries the segment kind in its
// low bits. Bit 7 (manifestSegIndexed) was set by older builds on a sealed
// segment holding an inverted key index; it is ignored on read and never
// written, so a MANIFEST that carries it still loads without a replay.
// "covered" is the byte offset within the segment's record region that
// this manifest accounts for: records beyond it (acked Puts after the
// manifest was written) are replayed at open. "bytes" is the packed
// record's length and (segment, offset) its location. The trailing
// checksum makes a cleanly-loading manifest trustworthy as-is, and its
// name order makes it the store's catalog table as parsed (catalog,
// below): an open reads the file once and parses the entries in one pass
// into a name-ordered []Meta whose names are substrings of the file's
// bytes, checking that every name is greater than the one before — no
// hashing, sorting or allocation per entry, and the segments are mapped
// first, so their key indexes are checked on a second goroutine meanwhile
// (fsbackend.go). A manifest that does not load (missing, corrupt, out of
// order, or any other version byte) is never read further: the open path
// replays the segments instead.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"misketch/internal/binio"
	"misketch/internal/core"
)

const (
	manifestMagic     = "MISX"
	manifestVersion   = 2
	manifestCRCBytes  = 4
	manifestMinV2Size = 4 + 1 + 1 + 1 + 1 + manifestCRCBytes

	// ManifestFile is the manifest's filename inside the store root.
	ManifestFile = "MANIFEST"
)

// Meta is one manifest record: everything ranking needs to know about a
// stored sketch before deciding to load it, plus where its packed
// record lives.
type Meta struct {
	// Name is the sketch's name. A Meta loaded from the MANIFEST shares
	// its Name's bytes with one string over the whole file's bytes, so a
	// name held anywhere (the catalog table, a List or Metas result)
	// keeps that string alive: about 1 MB per 20 000 entries.
	Name       string
	Method     core.Method
	Role       core.Role
	Seed       uint32
	Size       int
	Numeric    bool
	SourceRows int
	// Entries is the sketch's stored entry count (its Len); an upper
	// bound contributor to any join size involving it.
	Entries int
	// Bytes is the packed record's length on disk (for the mem backend,
	// an in-memory size estimate).
	Bytes int64
	// Segment and Offset locate the packed record (fs backend; zero for
	// mem).
	Segment uint64
	Offset  int64
}

// metaOf derives the manifest record for a sketch just stored.
func metaOf(name string, sk *core.Sketch, seg uint64, off, bytes int64) Meta {
	return Meta{
		Name:       name,
		Method:     sk.Method,
		Role:       sk.Role,
		Seed:       sk.Seed,
		Size:       sk.Size,
		Numeric:    sk.Numeric,
		SourceRows: sk.SourceRows,
		Entries:    sk.Len(),
		Bytes:      bytes,
		Segment:    seg,
		Offset:     off,
	}
}

// catalog is the store's in-memory index: the MANIFEST's name-ordered
// table of live records, as loaded or last merged, and the Puts and
// Deletes since then. A by-name read checks pending and then
// binary-searches the table; merged folds pending in and move relocates
// compacted records, each writing a new table, so a table a catalog view
// (catalogview.go) holds is never written again.
type catalog struct {
	table []Meta // strictly ascending by name
	// pending holds each name's newest record since the last merge; a
	// zero Meta is a Delete (no stored name is empty: Put refuses one).
	// Nil after a merge, so an open with no tail to replay makes no map.
	pending map[string]Meta
	live    int   // live records, table and pending together
	bytes   int64 // the sum of the live records' Bytes
}

// get returns name's live record.
func (c *catalog) get(name string) (Meta, bool) {
	if m, ok := c.pending[name]; ok {
		return m, m.Name != ""
	}
	t := c.table
	i := sort.Search(len(t), func(i int) bool { return t[i].Name >= name })
	if i < len(t) && t[i].Name == name {
		return t[i], true
	}
	return Meta{}, false
}

// set records m as name's newest record, or a Delete of name when m is
// the zero Meta, keeping live and bytes in step.
func (c *catalog) set(name string, m Meta) {
	old, had := c.get(name)
	if !had && m.Name == "" {
		return // nothing to delete
	}
	if had {
		c.live--
		c.bytes -= old.Bytes
	}
	if m.Name != "" {
		c.live++
		c.bytes += m.Bytes
	}
	if c.pending == nil {
		c.pending = make(map[string]Meta)
	}
	c.pending[name] = m
}

// merged folds pending into a new table in O(n + p log p) — the pending
// names sorted, the table's runs between them copied whole — and returns
// it: every live record in name order, which the caller must not write.
func (c *catalog) merged() []Meta {
	if len(c.pending) == 0 {
		return c.table
	}
	t := make([]Meta, 0, c.live)
	rest := c.table
	for _, name := range slices.Sorted(maps.Keys(c.pending)) {
		i := sort.Search(len(rest), func(i int) bool { return rest[i].Name >= name })
		t = append(t, rest[:i]...)
		if i < len(rest) && rest[i].Name == name {
			i++
		}
		rest = rest[i:]
		if m := c.pending[name]; m.Name != "" {
			t = append(t, m)
		}
	}
	c.table, c.pending = append(t, rest...), nil
	return c.table
}

// move relocates live — a name-ordered snapshot of the records that lay
// in sources — to locs, parallel to it, in a new table. A name deleted or
// written again since the snapshot keeps what the racing writer left.
func (c *catalog) move(live []Meta, locs []recLoc, sources map[uint64]*segment) {
	t := slices.Clone(c.merged())
	j := 0
	for i := range t {
		m := &t[i]
		for j < len(live) && live[j].Name < m.Name {
			j++ // deleted since the snapshot
		}
		if j == len(live) {
			break
		}
		if _, src := sources[m.Segment]; live[j].Name != m.Name || !src {
			continue // put since the snapshot, or overwritten
		}
		c.bytes += locs[j].length - m.Bytes
		m.Segment, m.Offset, m.Bytes = locs[j].seg, locs[j].off, locs[j].length
	}
	c.table = t
}

// manifestSegIndexed is the kind byte's bit 7, which older builds set on a
// sealed segment carrying an inverted key index: masked off on read.
const manifestSegIndexed = 0x80

// manifestSeg is one segment-list entry.
type manifestSeg struct {
	seq     uint64
	kind    uint8
	covered int64
}

// manifestV2 is a parsed v2 manifest.
type manifestV2 struct {
	nextSeq uint64
	segs    []manifestSeg
	metas   []Meta // strictly ascending by name
	bytes   int64  // the sum of metas[*].Bytes
	entries []byte // not yet parsed (readManifestV2)
}

// errManifestVersion marks a manifest whose magic is right but whose
// version byte is not 2; the open path recovers from the segments.
var errManifestVersion = errors.New("store: manifest is not version 2")

// writeManifestV2 atomically persists the manifest next to the segments.
// metas is a catalog table: strictly ascending by name.
func writeManifestV2(path string, nextSeq uint64, segs []manifestSeg, metas []Meta) error {
	buf := append(make([]byte, 0, 64+48*len(metas)), manifestMagic...)
	buf = append(buf, manifestVersion)
	buf = binio.AppendUvarint(buf, nextSeq)
	buf = binio.AppendUvarint(buf, uint64(len(segs)))
	for _, s := range segs {
		buf = binio.AppendUvarint(buf, s.seq)
		buf = append(buf, s.kind)
		buf = binio.AppendUvarint(buf, uint64(s.covered))
	}
	buf = binio.AppendUvarint(buf, uint64(len(metas)))
	for i := range metas {
		m := &metas[i]
		buf = binio.AppendStr(buf, m.Name)
		buf = binio.AppendStr(buf, string(m.Method))
		buf = append(buf, uint8(m.Role))
		buf = binio.AppendU32(buf, m.Seed)
		buf = binio.AppendUvarint(buf, uint64(m.Size))
		buf = append(buf, b2u8(m.Numeric))
		buf = binio.AppendUvarint(buf, uint64(m.SourceRows))
		buf = binio.AppendUvarint(buf, uint64(m.Entries))
		buf = binio.AppendUvarint(buf, uint64(m.Bytes))
		buf = binio.AppendUvarint(buf, m.Segment)
		buf = binio.AppendUvarint(buf, uint64(m.Offset))
	}
	payload := binio.AppendU32(buf, crc32.Checksum(buf, crcTable))
	err := atomicWrite(path, ManifestFile+".tmp*", func(f *os.File) error {
		_, werr := f.Write(payload)
		return werr
	})
	if err != nil {
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	return nil
}

// loadManifestV2 reads a manifest written by writeManifestV2. A missing
// file surfaces as an os.IsNotExist error; any other version byte as
// errManifestVersion.
func loadManifestV2(path string) (*manifestV2, error) {
	man, err := readManifestV2(path)
	if err != nil {
		return nil, err
	}
	return man, man.parseEntries()
}

// readManifestV2 is loadManifestV2 up to the entries, which an open
// parses once it has mapped the segments (parseEntries).
func readManifestV2(path string) (*manifestV2, error) {
	raw, err := readFileHooked(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < manifestMinV2Size {
		return nil, fmt.Errorf("store: manifest too short (%d bytes)", len(raw))
	}
	if string(raw[:4]) != manifestMagic {
		return nil, fmt.Errorf("store: bad manifest magic %q", raw[:4])
	}
	if raw[4] != manifestVersion {
		return nil, fmt.Errorf("%w (version %d)", errManifestVersion, raw[4])
	}
	body, tail := raw[:len(raw)-manifestCRCBytes], raw[len(raw)-manifestCRCBytes:]
	if got, want := crc32.Checksum(body, crcTable), binio.U32At(tail, 0); got != want {
		return nil, fmt.Errorf("store: manifest fails CRC (%08x != %08x)", got, want)
	}
	mr := binio.NewReader(body)
	mr.Bytes(5) // magic, version
	man := &manifestV2{}
	man.nextSeq = mr.Uvarint()
	segCount := mr.Uvarint()
	if mr.Err != nil || segCount > uint64(len(body)) {
		return nil, fmt.Errorf("store: reading manifest segment list: %v", mr.Err)
	}
	for i := uint64(0); i < segCount; i++ {
		var s manifestSeg
		s.seq = mr.Uvarint()
		s.kind = mr.U8() &^ manifestSegIndexed
		s.covered = int64(mr.Uvarint())
		if mr.Err != nil {
			return nil, fmt.Errorf("store: reading manifest segment %d: %w", i, mr.Err)
		}
		man.segs = append(man.segs, s)
	}
	man.entries = body[len(body)-mr.Left():]
	return man, nil
}

// parseEntries parses the entries in one pass over their bytes, each
// varint by the inlined binio.UvarintAt: a string and the fixed fields
// after it are checked against the end as the string is read, the varints
// after them together.
func (man *manifestV2) parseEntries() error {
	b := man.entries
	count, p := binio.UvarintAt(b, 0)
	if p <= 0 || count > uint64(len(b))/minEntryBytes {
		return fmt.Errorf("store: implausible manifest (%d sketches in %d bytes)", count, len(b))
	}
	// Names are substrings of one string over the file's bytes, which
	// nothing writes; methods are interned, so none keeps those bytes.
	s, method := unsafe.String(unsafe.SliceData(b), len(b)), core.Method("")
	man.metas, man.entries = make([]Meta, count), nil
	for i := range man.metas {
		m, strs := &man.metas[i], [2]string{} // name, method; after each, at least role and seed
		for j := range strs {
			n, k := binio.UvarintAt(b, p)
			if k <= 0 || len(b)-p-k < 5 || n > uint64(len(b)-p-k-5) {
				return fmt.Errorf("store: manifest entry %d is truncated", i)
			}
			p += k + int(n)
			strs[j] = s[p-int(n) : p]
		}
		if strs[1] != string(method) { // by comparison: the method rarely changes
			if j := slices.IndexFunc(core.Methods, func(x core.Method) bool { return string(x) == strs[1] }); j >= 0 {
				method = core.Methods[j]
			} else {
				method = core.Method(strings.Clone(strs[1]))
			}
		}
		m.Name, m.Method, m.Role, m.Seed = strs[0], method, core.Role(b[p]), binio.U32At(b, p+1)
		size, k := binio.UvarintAt(b, p+5)
		p += 5 + k // the numeric byte: read only if it exists, refused below if not
		m.Numeric = uint(p) < uint(len(b)) && b[p] == 1
		rows, k1 := binio.UvarintAt(b, p+1)
		entries, k2 := binio.UvarintAt(b, p+1+k1)
		bytes, k3 := binio.UvarintAt(b, p+1+k1+k2)
		seg, k4 := binio.UvarintAt(b, p+1+k1+k2+k3)
		off, k5 := binio.UvarintAt(b, p+1+k1+k2+k3+k4)
		if p += 1 + k1 + k2 + k3 + k4 + k5; min(k, k1, k2, k3, k4, k5) <= 0 {
			return fmt.Errorf("store: manifest entry %d is truncated", i)
		}
		m.Size, m.SourceRows, m.Entries, m.Bytes, m.Segment, m.Offset = int(size), int(rows), int(entries), int64(bytes), seg, int64(off)
		if i > 0 && m.Name <= man.metas[i-1].Name {
			return fmt.Errorf("store: manifest entry %d (%q) is not ordered after %q", i, m.Name, man.metas[i-1].Name)
		}
		man.bytes += m.Bytes
	}
	return nil
}

// minEntryBytes bounds the per-entry size from below so a corrupt count
// cannot demand an absurd table preallocation.
const minEntryBytes = 14

// readFileHooked reads a whole file through the open-count hook.
func readFileHooked(path string) ([]byte, error) {
	f, err := openFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, fi.Size())
	if _, err := f.ReadAt(buf, 0); err != nil && fi.Size() > 0 {
		return nil, err
	}
	return buf, nil
}

// atomicWrite writes path via a temp file in the same directory with the
// full durability recipe: write, fsync the file, rename into place,
// fsync the directory so the rename itself survives power loss. No temp
// file is left behind on failure — except at an injected crash point,
// which by design leaves the debris a real crash would.
func atomicWrite(path, tmpPattern string, write func(f *os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), tmpPattern)
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if herr := crashPoint("flush.written"); herr != nil {
			return herr // crash before rename: tmp file left behind
		}
		err = os.Rename(tmp, path)
	}
	if err == nil {
		if herr := crashPoint("flush.renamed"); herr != nil {
			return herr // crash before the directory sync
		}
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss, completing the temp-write/fsync/rename durability recipe.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
