package binio

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestAppendReaderRoundTrip(t *testing.T) {
	buf := append([]byte("MAGC"), 7)
	buf = AppendU32(buf, 0xDEADBEEF)
	buf = AppendU64(buf, 1<<40)
	buf = AppendUvarint(buf, 300)
	buf = AppendStr(buf, "héllo")
	r := NewReader(buf)
	if got := r.Bytes(4); string(got) != "MAGC" {
		t.Errorf("magic = %q", got)
	}
	if got := r.U8(); got != 7 {
		t.Errorf("u8 = %d", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("u32 = %x", got)
	}
	if got := r.U64(); got != 1<<40 {
		t.Errorf("u64 = %x", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("uvarint = %d", got)
	}
	if got := r.Str(); got != "héllo" {
		t.Errorf("str = %q", got)
	}
	if r.Err != nil || r.Left() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err, r.Left())
	}
	// Truncated input surfaces as a sticky error, not a panic.
	r2 := NewReader(buf[:2])
	r2.U32()
	if r2.Err == nil {
		t.Error("short read should error")
	}
	if r2.U8(); r2.Err == nil {
		t.Error("error must stick")
	}
	// A string longer than what is left is truncated input too.
	if r3 := NewReader(AppendUvarint(nil, 5)); r3.Str() != "" || r3.Err == nil {
		t.Error("string past the end should error")
	}
}

func TestStrRejectsImplausibleLength(t *testing.T) {
	r := NewReader(AppendUvarint(nil, 1<<30)) // length prefix far beyond the cap
	if r.Str(); r.Err == nil {
		t.Error("oversized string length must be rejected")
	}
}

func TestRawBufferHelpers(t *testing.T) {
	b := AppendU32(nil, 0x01020304)
	b = AppendU64(b, 0x1122334455667788)
	if U32At(b, 0) != 0x01020304 {
		t.Errorf("U32At = %x", U32At(b, 0))
	}
	if U64At(b, 4) != 0x1122334455667788 {
		t.Errorf("U64At = %x", U64At(b, 4))
	}
	if b[0] != 0x04 || b[4] != 0x88 {
		t.Error("raw helpers are not little-endian")
	}
	PutU32(b[:4], 42)
	if U32At(b, 0) != 42 {
		t.Error("PutU32 round trip failed")
	}
	padded := AppendPad([]byte{1, 2, 3}, 8)
	if len(padded) != 8 || padded[7] != 0 {
		t.Errorf("AppendPad = %v", padded)
	}
	if got := AppendPad(padded, 8); len(got) != 8 {
		t.Error("AppendPad of aligned input must be a no-op")
	}
}

// TestUvarintAtMatchesBinaryUvarint holds UvarintAt to binary.Uvarint's
// contract at every offset of well-formed, truncated, over-long and
// overflowing inputs, and to (0, 0) outside the buffer.
func TestUvarintAtMatchesBinaryUvarint(t *testing.T) {
	inputs := [][]byte{
		nil,
		{0x00},
		{0x7f},
		{0x80},                             // truncated after one byte
		{0x80, 0x01},                       // 128
		{0xff, 0x7f, 0x05},                 // two bytes, then a one-byte value
		{0x80, 0x80, 0x80, 0x80},           // truncated, every byte a continuation
		{0x80, 0x00},                       // over-long zero: accepted, two bytes
		binary.AppendUvarint(nil, 1<<63),   // ten bytes
		binary.AppendUvarint(nil, 1<<64-1), // ten bytes, last byte 0x01
		append(bytes.Repeat([]byte{0xff}, 9), 0x02),  // ten bytes, overflows
		append(bytes.Repeat([]byte{0x80}, 10), 0x01), // eleven bytes
		binary.AppendUvarint(binary.AppendUvarint([]byte{0x05}, 300), 1<<40),
	}
	for _, b := range inputs {
		for off := 0; off <= len(b); off++ {
			wantV, wantN := binary.Uvarint(b[off:])
			if v, n := UvarintAt(b, off); v != wantV || n != wantN {
				t.Errorf("UvarintAt(% x, %d) = (%d, %d), binary.Uvarint says (%d, %d)", b, off, v, n, wantV, wantN)
			}
		}
		for _, off := range []int{-1, len(b) + 1, len(b) + 64} {
			if v, n := UvarintAt(b, off); v != 0 || n != 0 {
				t.Errorf("UvarintAt(% x, %d) = (%d, %d) outside the buffer, want (0, 0)", b, off, v, n)
			}
		}
	}
}

func TestUvarintLen(t *testing.T) {
	for shift := 0; shift < 64; shift++ {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			if got, want := UvarintLen(v), len(AppendUvarint(nil, v)); got != want {
				t.Errorf("UvarintLen(%d) = %d, AppendUvarint writes %d bytes", v, got, want)
			}
		}
	}
	if got := UvarintLen(1<<64 - 1); got != 10 {
		t.Errorf("UvarintLen(2⁶⁴-1) = %d, want 10", got)
	}
}
