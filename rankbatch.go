package misketch

import (
	"context"

	"misketch/internal/store"
)

// This file exposes batch discovery: ranking many train sketches (an
// analyst's sweep over dozens of target columns) against the stored
// corpus in one pass.

// BatchRankOptions is another name for RankOptions: one value describes a
// rank of one train or of many.
type BatchRankOptions = RankOptions

// BatchRanking is the result of a batch discovery query: one
// BatchQueryRanking per train, in input order, plus the shared skipped
// list.
type BatchRanking = store.BatchResult

// BatchQueryRanking is one train's slice of a BatchRanking: the ranked
// candidates (bit-identical to an independent Store.RankQuery) and the
// number of candidates the key-overlap prefilter pruned for this train.
type BatchQueryRanking = store.BatchQueryResult

// RankBatch ranks every train sketch against the store's candidates in
// one corpus pass; see Store.RankBatch. Each train's ranking is
// bit-for-bit what an independent Store.RankQuery call would return,
// but candidates are loaded once for the whole batch and the
// key-overlap prefilter skips the estimator for pairs whose sketch
// join provably has at most MinJoinSize samples. All trains must share
// a hash seed.
func RankBatch(ctx context.Context, st *Store, trains []*Sketch, opt BatchRankOptions) (*BatchRanking, error) {
	return st.RankBatch(ctx, trains, opt)
}
