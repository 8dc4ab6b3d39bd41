package main

import "testing"

// The pinned digests: any change to the generator that moves a byte of
// a catalog, a train or a csv table changes one of these, and with it
// every number measured so far.
var pinnedDigests = map[string]string{
	"num1k":   "42b9774ff2d0c28fc883fc142f3323e11fdc2a954ae134faf4e4ef878d0ee840",
	"mixed1k": "09c30bb93b1f8aeb90804011ea050c7f6d8f1be1800e4452405811bd1e0f4c12",
	"sel20k":  "e2e7777b4bbb4cdc29dcb722cbabfd58860d2760d8342dc615854a860381b237",
	"csv":     "35e6a897de7a75212fdc6ec8647c69e87f95f8a07927530744a9e0db72f7eae6",
}

func TestCorpusDigests(t *testing.T) {
	for catalog, want := range pinnedDigests {
		got, err := corpusDigest(catalog, 1, shortScale)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s seed 1: digest %s, pinned %s", catalog, got, want)
		}
		again, err := corpusDigest(catalog, 1, shortScale)
		if err != nil {
			t.Fatal(err)
		}
		if again != got {
			t.Errorf("%s: same seed gave different bytes", catalog)
		}
		other, err := corpusDigest(catalog, 2, shortScale)
		if err != nil {
			t.Fatal(err)
		}
		if other == got {
			t.Errorf("%s: seeds 1 and 2 gave the same bytes", catalog)
		}
	}
}

func TestFreshTrainsNeverRepeat(t *testing.T) {
	base := numTrain(1, 0)
	rng := subRNG(1, "client", 0)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		b := string(sketchBytes(freshTrain(base, rng)))
		if seen[b] {
			t.Fatalf("train %d repeats an earlier one", i)
		}
		seen[b] = true
	}
	if len(base.Nums) == 0 || &base.Nums[0] == &freshTrain(base, rng).Nums[0] {
		t.Fatal("fresh train aliases the base train's values")
	}
}

func TestNumPlanted(t *testing.T) {
	for name, want := range map[string]bool{
		numName(0): true, numName(64): true, numName(1): false, numName(63): false,
		mutName(3): true, "batch/t0000#x": false,
	} {
		if got := numPlanted(name); got != want {
			t.Errorf("numPlanted(%q) = %v, want %v", name, got, want)
		}
	}
}
