package misketch

import (
	"context"
	"net/http"

	"misketch/internal/server"
)

// This file exposes the discovery service: a long-running HTTP/JSON
// server over an open Store, the deployment mode for sustained query
// traffic. One store handle, its decoded-sketch cache and plan memo, and
// pooled estimator scratch are shared across all requests, so a warm
// ranking query pays none of the per-invocation costs of the CLI (store
// open, manifest load, phase 1 of a repeated train, buffer growth).

// DiscoveryServer serves discovery queries over HTTP; see NewServer. It
// implements http.Handler, so it can be mounted inside a larger mux.
type DiscoveryServer = server.Server

// ServerOptions tunes a DiscoveryServer: total rank-worker bound, result
// cache size, request body cap, and shutdown drain timeout.
type ServerOptions = server.Options

// Server request/response bodies, for typed clients of the service.
type (
	RankRequest        = server.RankRequest
	RankResponse       = server.RankResponse
	RankedResult       = server.RankedResult
	RankBatchRequest   = server.RankBatchRequest
	RankBatchResponse  = server.RankBatchResponse
	BatchTrainRef      = server.BatchTrainRef
	BatchQueryResponse = server.BatchQueryResponse
	SketchReply        = server.SketchResponse
	StatsResponse      = server.StatsResponse
)

// NewServer wraps an open store in a discovery server serving:
//
//	POST /v1/rank        rank stored candidates against a train sketch
//	POST /v1/rank/batch  rank N trains in one prefiltered corpus pass
//	POST /v1/sketch      build a sketch from a posted CSV body
//	POST /v1/put         ingest a serialized sketch into the store
//	GET  /v1/ls          manifest listing
//	GET  /v1/stats       store + server counters
//	GET  /healthz        liveness
//
// The caller keeps ownership of the store handle; the server flushes its
// manifest on graceful shutdown.
func NewServer(st *Store, opt ServerOptions) *DiscoveryServer {
	return server.New(st, opt)
}

// Serve opens (creating if necessary) the store at storeDir and serves
// discovery queries on addr until ctx is cancelled, then drains
// in-flight requests and persists the manifest. It is the programmatic
// form of `misketch serve`.
func Serve(ctx context.Context, addr, storeDir string, storeOpt OpenStoreOptions, opt ServerOptions) error {
	st, err := OpenStoreWithOptions(storeDir, storeOpt)
	if err != nil {
		return err
	}
	return NewServer(st, opt).ListenAndServe(ctx, addr)
}

// assert the handler contract at compile time.
var _ http.Handler = (*DiscoveryServer)(nil)
