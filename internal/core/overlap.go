package core

// Key-overlap prefiltering. TUPSK (and the coordinated baselines) sample
// both join sides with the same hash function, so the intersection of two
// sketches' key-hash sets is exactly the set of keys their sketch join
// recovers — and the sketch join size, the quantity the min-join
// confidence filter thresholds on, is computable from key hashes alone:
// no value pairing, no estimator, no per-pair scratch. Ranking takes
// this count from the first step of its scratch join (JoinAbove) for
// every (train, candidate) pair before any value is read; any pair whose
// overlap proves the join would fall at or below the min-join cutoff is
// pruned there, with a result provably identical to having estimated and
// then dropped it.

// KeyOverlap returns the sketch join size of (train, cand) computed from
// key hashes alone: the number of (train entry, candidate entry) pairs
// sharing a key hash. It equals the Size of the JoinedSample that Join or
// JoinScratch would recover, counting each duplicated candidate key hash
// separately (Join itself rejects duplicates that match a train entry;
// see Sketch.HasDuplicateKeyHashes to detect that case without joining).
// Both sketches must be built with the same hash seed for the count to be
// meaningful; KeyOverlap does not check, because prefilter callers have
// already filtered on seed.
//
// This is the reference implementation; TrainProbe.KeyOverlap computes
// it allocation-free on a compiled index, and TrainProbe.JoinAbove, the
// ranking hot path, reports it as the Size of every join it probes.
func KeyOverlap(train, cand *Sketch) int {
	mult := make(map[uint32]int, train.Len())
	for _, hk := range train.KeyHashes {
		mult[hk]++
	}
	overlap := 0
	for _, hk := range cand.KeyHashes {
		overlap += mult[hk]
	}
	return overlap
}

// KeyOverlap returns the sketch join size of (probe's train, cand)
// computed from key hashes alone, probing the compiled hash→entry index:
// one open-addressing lookup per candidate entry, zero allocations. The
// count is identical to the package-level KeyOverlap.
func (p *TrainProbe) KeyOverlap(cand *Sketch) int {
	mask := p.mask
	overlap := 0
	for _, hk := range cand.KeyHashes {
		i := hk & mask
		for {
			v := p.htabVal[i]
			if v == 0 {
				break
			}
			if p.htabKey[i] == hk {
				overlap += int(uint32(v) - (uint32(v>>32) - 1))
				break
			}
			i = (i + 1) & mask
		}
	}
	return overlap
}

// HasDuplicateKeyHashes reports whether the sketch stores the same key
// hash in more than one entry. Candidate sketches produced by Build and
// StreamBuilder never do (candidate keys are aggregated to uniqueness
// before sampling); a duplicate can only come from a hand-crafted or
// corrupted serialized sketch, and makes the sketch unjoinable wherever
// the duplicate matches. The answer is computed once and memoized, so
// batch ranking can consult it per (candidate, query) pair for free.
func (s *Sketch) HasDuplicateKeyHashes() bool {
	if v := s.dupKeys.Load(); v != 0 {
		return v == dupKeysYes
	}
	seen := make(map[uint32]struct{}, len(s.KeyHashes))
	state := uint32(dupKeysNo)
	for _, hk := range s.KeyHashes {
		if _, dup := seen[hk]; dup {
			state = dupKeysYes
			break
		}
		seen[hk] = struct{}{}
	}
	// A racing computation stores the same answer; either wins.
	s.dupKeys.Store(state)
	return state == dupKeysYes
}

// dupKeys memo states (0 = not yet computed).
const (
	dupKeysNo  = 1
	dupKeysYes = 2
)
