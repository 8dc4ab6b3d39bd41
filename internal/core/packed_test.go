package core

import (
	"fmt"
	"math"
	"testing"

	"misketch/internal/mi"
	"misketch/internal/table"
)

// packedSketches builds a spread of sketches covering both value kinds,
// both roles, empty and NaN-bearing cases.
func packedSketches(t *testing.T) map[string]*Sketch {
	t.Helper()
	out := map[string]*Sketch{}
	var keys []string
	var nums []float64
	var strs []string
	for i := 0; i < 500; i++ {
		keys = append(keys, fmt.Sprintf("k%d", i%137))
		nums = append(nums, float64(i%7)+0.25*float64(i%13))
		strs = append(strs, fmt.Sprintf("cat-%d", i%11))
	}
	numTab := table.New(table.NewStringColumn("k", keys), table.NewFloatColumn("v", nums))
	strTab := table.New(table.NewStringColumn("k", keys), table.NewStringColumn("v", strs))
	opt := Options{Method: TUPSK, Size: 64, Seed: 5}
	for _, role := range []Role{RoleTrain, RoleCandidate} {
		for kind, tab := range map[string]*table.Table{"num": numTab, "str": strTab} {
			sk, err := Build(tab, "k", "v", role, opt)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s-role%d", kind, role)] = sk
		}
	}
	out["empty"] = &Sketch{Method: CSK, Role: RoleCandidate, Seed: 9, Size: 8, Numeric: true,
		KeyHashes: []uint32{}, Nums: []float64{}}
	out["nan"] = &Sketch{Method: INDSK, Role: RoleCandidate, Seed: 9, Size: 8, Numeric: true,
		KeyHashes: []uint32{1, 2, 3}, Nums: []float64{1, math.NaN(), 3}, SourceRows: 3}
	out["empty-strings"] = &Sketch{Method: LV2SK, Role: RoleCandidate, Seed: 9, Size: 8,
		KeyHashes: []uint32{4, 5, 6}, Strs: []string{"", "x", ""}, SourceRows: 3}
	out["dup-hashes"] = &Sketch{Method: TUPSK, Role: RoleCandidate, Seed: 9, Size: 8, Numeric: true,
		KeyHashes: []uint32{7, 7, 8}, Nums: []float64{1, 2, 3}, SourceRows: 3}
	return out
}

func packedSketchesEqual(t *testing.T, name string, got, want *Sketch) {
	t.Helper()
	if got.Method != want.Method || got.Role != want.Role || got.Seed != want.Seed ||
		got.Size != want.Size || got.Numeric != want.Numeric || got.SourceRows != want.SourceRows {
		t.Errorf("%s: header mismatch: got %+v", name, got)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d entries, want %d", name, got.Len(), want.Len())
	}
	for i := range want.KeyHashes {
		if got.KeyHashes[i] != want.KeyHashes[i] {
			t.Fatalf("%s: key hash %d mismatch", name, i)
		}
		if want.Numeric {
			if math.Float64bits(got.Nums[i]) != math.Float64bits(want.Nums[i]) {
				t.Fatalf("%s: value %d not bit-identical", name, i)
			}
		} else if got.Strs[i] != want.Strs[i] {
			t.Fatalf("%s: string %d mismatch", name, i)
		}
	}
}

func TestPackedRecordRoundTrip(t *testing.T) {
	for name, sk := range packedSketches(t) {
		for _, borrow := range []bool{false, true} {
			buf, err := AppendRecord(nil, "store/"+name, sk)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(buf)%8 != 0 {
				t.Errorf("%s: record length %d not 8-aligned", name, len(buf))
			}
			if n, err := VerifyRecord(buf, 0); err != nil || n != len(buf) {
				t.Fatalf("%s: VerifyRecord = %d, %v", name, n, err)
			}
			rec, err := DecodeRecord(buf, 0, borrow)
			if err != nil {
				t.Fatalf("%s borrow=%v: %v", name, borrow, err)
			}
			if rec.Kind != RecordSketch || rec.Name != "store/"+name || rec.Len != len(buf) {
				t.Fatalf("%s: rec = %+v", name, rec.RecordInfo)
			}
			packedSketchesEqual(t, name, rec.Sketch, sk)
			// The persisted memos must match recomputation from scratch.
			if got, want := rec.Sketch.HasDuplicateKeyHashes(), sk.HasDuplicateKeyHashes(); got != want {
				t.Errorf("%s: dup-keys memo = %v, want %v", name, got, want)
			}
			gotOrder, wantOrder := rec.Sketch.NumValOrder(), sk.NumValOrder()
			if (gotOrder == nil) != (wantOrder == nil) || len(gotOrder) != len(wantOrder) {
				t.Fatalf("%s: val order shape mismatch", name)
			}
			for i := range wantOrder {
				if gotOrder[i] != wantOrder[i] {
					t.Fatalf("%s: val order differs at %d", name, i)
				}
			}
		}
	}
}

// TestPackedRecordViewEstimatesBitIdentical is the codec-level half of
// the engine's acceptance bar: estimating against a zero-copy record
// view yields bit-for-bit the result of estimating the original sketch.
func TestPackedRecordViewEstimatesBitIdentical(t *testing.T) {
	sks := packedSketches(t)
	for _, trainKind := range []string{"num-role0", "str-role0"} {
		train := sks[trainKind]
		probe := CompileTrainProbe(train)
		var s1, s2 Scratch
		for _, candKind := range []string{"num-role1", "str-role1"} {
			cand := sks[candKind]
			buf, err := AppendRecord(nil, "c", cand)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := DecodeRecord(buf, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			want, err1 := EstimateMIScratch(probe, cand, mi.DefaultK, &s1)
			got, err2 := EstimateMIScratch(probe, rec.Sketch, mi.DefaultK, &s2)
			if err1 != nil || err2 != nil {
				t.Fatalf("estimate: %v / %v", err1, err2)
			}
			if math.Float64bits(got.MI) != math.Float64bits(want.MI) || got.N != want.N || got.Estimator != want.Estimator {
				t.Errorf("%s vs %s: view estimate %v != direct %v", trainKind, candKind, got, want)
			}
		}
	}
}

func TestPackedTombstoneRoundTrip(t *testing.T) {
	buf, err := AppendTombstone(nil, "dead/sketch#x")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := VerifyRecord(buf, 0); err != nil || n != len(buf) {
		t.Fatalf("VerifyRecord = %d, %v", n, err)
	}
	rec, err := DecodeRecord(buf, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != RecordTombstone || rec.Name != "dead/sketch#x" || rec.Sketch != nil {
		t.Errorf("rec = %+v", rec)
	}
}

func TestPackedRecordRejectsCorruption(t *testing.T) {
	sk := packedSketches(t)["num-role1"]
	buf, err := AppendRecord(nil, "c", sk)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 5, 9, len(buf) / 2, len(buf) - 1} {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x20
		if _, err := VerifyRecord(mut, 0); err == nil {
			t.Errorf("flip at %d: VerifyRecord should fail", i)
		}
	}
	if _, err := VerifyRecord(buf[:16], 0); err == nil {
		t.Error("truncated record should fail")
	}
	if _, err := DecodeRecord(buf, 4, true); err == nil {
		t.Error("unaligned offset should fail")
	}
}
