package server

// The HTTP plumbing a discovery server and a cluster coordinator share:
// the listener lifecycle, body reading under the size cap, JSON bodies
// and error objects, and the ETag wire protocol. The coordinator speaks
// the same protocol as a single node, so it calls these rather than
// carrying copies.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"
)

// Timeouts are the listener durations of Options (and of the cluster
// coordinator's options, which mirror them). Each follows one
// convention: zero means its Default* constant, negative disables it.
type Timeouts struct {
	// Shutdown bounds the graceful drain; disabled, the drain waits for
	// the last in-flight request no matter how long it runs.
	Shutdown time.Duration
	// ReadHeader is the load-bearing one — it reaps connections that
	// dribble or stall their request before a handler ever runs
	// (slowloris), which no handler-level deadline can do.
	ReadHeader, Read, Write, Idle time.Duration
}

// Timeout resolves one duration option: zero means the default,
// negative means disabled (returned as 0).
func Timeout(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// shutdownContext is the context the graceful drain runs under: bounded
// by the resolved Shutdown timeout, or without a deadline when that is
// disabled. Factored out (and tested) because the semantics must match
// the connection-timeout convention exactly.
func (t Timeouts) shutdownContext() (context.Context, context.CancelFunc) {
	if d := Timeout(t.Shutdown, DefaultShutdownTimeout); d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.WithCancel(context.Background())
}

// Serve serves h on ln (which it takes ownership of) until ctx is
// cancelled, then shuts down gracefully: stop accepting and drain
// in-flight requests, bounded by t.Shutdown. It returns nil after a
// clean shutdown.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, t Timeouts) error {
	// The shutdown goroutine must not outlive this call when Serve fails
	// on its own (bad listener, external close) under a long-lived ctx.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: Timeout(t.ReadHeader, DefaultReadHeaderTimeout),
		ReadTimeout:       Timeout(t.Read, DefaultReadTimeout),
		WriteTimeout:      Timeout(t.Write, DefaultWriteTimeout),
		IdleTimeout:       Timeout(t.Idle, DefaultIdleTimeout),
	}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shCtx, cancel := t.shutdownContext()
		defer cancel()
		done <- hs.Shutdown(shCtx)
	}()
	err := hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		err = <-done // wait for the drain
	}
	return err
}

// ReadBody drains a request body honoring the MaxBytesReader cap.
func ReadBody(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// BodyErrStatus distinguishes a body over the MaxBodyBytes cap (413,
// retryable with a smaller payload) from a malformed request (400).
func BodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// ErrorResponse is the error body of every non-2xx JSON response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// EncodeJSON marshals v with the trailing newline json.Encoder puts on
// the wire, so cached bytes and streamed bytes are interchangeable. The
// result has no spare capacity: result caches retain it as it is.
func EncodeJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Response types marshal by construction; reaching here is a
		// programming error, surfaced as a well-formed 500 body.
		return []byte(`{"error":"encoding response"}` + "\n")
	}
	out := make([]byte, len(b)+1)
	out[copy(out, b)] = '\n'
	return out
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	Outcome{Status: status, Body: EncodeJSON(v)}.Write(w)
}

// HTTPError writes an ErrorResponse with the given status.
func HTTPError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// Outcome is a fully-encoded JSON response: what a rank computation
// publishes to the requests coalesced behind it, and the single form
// cache hits, coalesced waiters, and fresh computations all leave in,
// so every outcome emits bit-identical bytes under one ETag. ETag is set
// on the 200s that carry one.
type Outcome struct {
	Status int
	ETag   string
	Body   []byte
}

// Write puts the outcome on the wire.
func (o Outcome) Write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	if o.ETag != "" {
		w.Header().Set("ETag", o.ETag)
	}
	w.WriteHeader(o.Status)
	_, _ = w.Write(o.Body) // the status line is already out; nothing to recover
}

// WriteNotModified answers an If-None-Match revalidation: 304, no
// body, the current ETag so the client can keep revalidating.
func WriteNotModified(w http.ResponseWriter, etag string) {
	w.Header().Set("ETag", etag)
	w.WriteHeader(http.StatusNotModified)
}

// ETagMatches reports whether an If-None-Match header value matches
// the given ETag: a literal "*", or any member of the comma-separated
// list (weak-comparison prefixes stripped — servers and coordinators
// only ever emit strong ETags, and W/"x" must still revalidate against
// "x").
func ETagMatches(ifNoneMatch, etag string) bool {
	if ifNoneMatch == "" {
		return false
	}
	if strings.TrimSpace(ifNoneMatch) == "*" {
		return true
	}
	for _, part := range strings.Split(ifNoneMatch, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag {
			return true
		}
	}
	return false
}
