package server

// Regression tests for the error-classification sweep: by-name rank
// failures must distinguish "no such sketch" (404) from "the stored
// record is sick" (500), /v1/sketch must reject rather than truncate
// out-of-range size/seed, and a negative ShutdownTimeout must disable
// the shutdown bound instead of being silently replaced by the default.

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"misketch/internal/core"
	"misketch/internal/store"
)

// postJSON posts a JSON body and returns the status code plus the
// response body, for tests asserting error statuses (rankViaHTTP fatals
// on anything but 200).
func postJSON(t testing.TB, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// TestByNameRankErrorClassification stores a train sketch, corrupts its
// record on disk with a byte flip, and checks that by-name lookups
// through every endpoint report 500 (replica is sick) for the corrupt
// name and 404 (authoritatively absent) for a missing name. Before the
// fix every trainSketch error with req.Train != "" mapped to 404, so a
// coordinator retrying on status codes would have treated a corrupt
// replica as proof the name does not exist.
func TestByNameRankErrorClassification(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	train := buildCorpus(t, st, 3)
	if err := st.Put("query/train", train); err != nil {
		t.Fatal(err)
	}
	m, ok := st.Meta("query/train")
	if !ok {
		t.Fatal("no meta for query/train")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit in the middle of the stored record; the per-record
	// CRC catches it at load time.
	seg := filepath.Join(dir, "segments", fmt.Sprintf("%012d.seg", m.Segment))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[m.Offset+m.Bytes/2] ^= 0x40
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	ts := httptest.NewServer(New(st2, Options{}))
	t.Cleanup(ts.Close)

	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"rank corrupt", "/v1/rank", `{"train":"query/train"}`, http.StatusInternalServerError},
		{"rank missing", "/v1/rank", `{"train":"no/such"}`, http.StatusNotFound},
		{"batch corrupt", "/v1/rank/batch", `{"trains":[{"train":"query/train"}]}`, http.StatusInternalServerError},
		{"batch missing", "/v1/rank/batch", `{"trains":[{"train":"no/such"}]}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postJSON(t, ts.URL+tc.path, tc.body)
			if status != tc.want {
				t.Fatalf("status %d, want %d (body %s)", status, tc.want, body)
			}
		})
	}
	t.Run("get corrupt", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/get?name=query/train")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500", resp.StatusCode)
		}
	})
	t.Run("get missing", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/get?name=no/such")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
	})
	// An inline sketch that fails to decode stays a client error.
	t.Run("inline bad", func(t *testing.T) {
		status, _ := postJSON(t, ts.URL+"/v1/rank", `{"sketch":"AAAA"}`)
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", status)
		}
	})
}

// TestGetNotFoundSentinel pins the store-level contract the server's
// 404-vs-500 mapping depends on: a miss carries store.ErrNotFound, a
// corrupt record does not.
func TestGetNotFoundSentinel(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	buildCorpus(t, st, 1)

	if _, err := st.Get("no/such"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Get miss = %v, want ErrNotFound", err)
	}
	if err := st.Delete("no/such"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Delete miss = %v, want ErrNotFound", err)
	}
	if _, err := st.Get("corpus/c000"); err != nil {
		t.Fatalf("Get hit = %v", err)
	}
}

// TestSketchSeedSizeRange checks /v1/sketch rejects out-of-range seed
// and size with 400 instead of silently truncating them. Before the
// fix ?seed=4294967296 wrapped to seed 0 via uint32 conversion.
func TestSketchSeedSizeRange(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 1, Options{})
	csv := "k,v\na,1\nb,2\n"

	post := func(params string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sketch?key=k&value=v&"+params,
			"text/csv", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := post("seed=4294967296"); got != http.StatusBadRequest {
		t.Fatalf("seed=2^32: status %d, want 400", got)
	}
	if got := post("seed=-1"); got != http.StatusBadRequest {
		t.Fatalf("seed=-1: status %d, want 400", got)
	}
	if got := post("seed=4294967295"); got != http.StatusOK {
		t.Fatalf("seed=2^32-1: status %d, want 200", got)
	}
	if got := post("size=0"); got != http.StatusBadRequest {
		t.Fatalf("size=0: status %d, want 400", got)
	}
	if got := post("size=1073741825"); got != http.StatusBadRequest {
		t.Fatalf("size=2^30+1: status %d, want 400", got)
	}
}

// TestSketchMalformedHeader checks /v1/sketch answers a CSV whose header
// cannot form a table — repeated or empty column names — with 400 and a
// message, not with the connection reset table.New's panic used to
// cause; and that a byte-order mark does not hide the key column.
func TestSketchMalformedHeader(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 1, Options{})
	for _, tc := range []struct {
		name, csv string
		status    int
	}{
		{"duplicate name", "k,v,v\na,1,2\n", http.StatusBadRequest},
		{"empty name", "k,v,\na,1,2\n", http.StatusBadRequest},
		{"two empty names", "k,v,,\na,1,2,3\n", http.StatusBadRequest},
		{"byte-order mark", "\ufeffk,v\na,1\nb,2\n", http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+"/v1/sketch?key=k&value=v", "text/csv", strings.NewReader(tc.csv))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status || tc.status != http.StatusOK && !strings.Contains(string(body), "reading CSV") {
			t.Errorf("%s: status %d body %s, want %d", tc.name, resp.StatusCode, body, tc.status)
		}
	}
}

// TestShutdownTimeoutSemantics pins the resolved shutdown bound: zero
// means the 30s default, positive means that duration, and negative
// disables the bound entirely — the same convention the four connection
// timeouts document.
func TestShutdownTimeoutSemantics(t *testing.T) {
	deadlineOf := func(opt Options) (time.Time, bool) {
		t.Helper()
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ctx, cancel := New(st, opt).timeouts().shutdownContext()
		defer cancel()
		return ctx.Deadline()
	}

	if d, ok := deadlineOf(Options{}); !ok {
		t.Fatal("zero ShutdownTimeout: no deadline, want default bound")
	} else if rem := time.Until(d); rem < 25*time.Second || rem > DefaultShutdownTimeout+time.Second {
		t.Fatalf("zero ShutdownTimeout: deadline in %v, want ~%v", rem, DefaultShutdownTimeout)
	}
	if d, ok := deadlineOf(Options{ShutdownTimeout: 2 * time.Second}); !ok {
		t.Fatal("positive ShutdownTimeout: no deadline")
	} else if rem := time.Until(d); rem > 2*time.Second+time.Second {
		t.Fatalf("positive ShutdownTimeout: deadline in %v, want ~2s", rem)
	}
	if _, ok := deadlineOf(Options{ShutdownTimeout: -1}); ok {
		t.Fatal("negative ShutdownTimeout: got a deadline, want unbounded")
	}
}

// TestCraftedSketchBytesAre400 sends sketch bytes no build writes —
// a 23-byte header claiming 2^28-1 numeric entries, a sketch holding
// +Inf, a sketch with bytes after it — to /v1/put and, inline, to
// /v1/rank and /v1/rank/batch: each is refused with 400, and the first
// is refused before anything is sized by its count.
func TestCraftedSketchBytesAre400(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(New(st, Options{}))
	t.Cleanup(ts.Close)

	inf := &core.Sketch{
		Method: core.TUPSK, Role: core.RoleTrain, Seed: 1, Size: 4, Numeric: true,
		SourceRows: 2, KeyHashes: []uint32{1, 2}, Nums: []float64{1, math.Inf(1)},
	}
	var infBytes bytes.Buffer
	if _, err := inf.WriteTo(&infBytes); err != nil {
		t.Fatal(err)
	}
	inf.Nums[1] = 2
	var trailing bytes.Buffer
	if _, err := inf.WriteTo(&trailing); err != nil {
		t.Fatal(err)
	}
	trailing.WriteByte(0)
	for name, raw := range map[string][]byte{
		"huge count": []byte("MISK\x01\x05TUPSK\x00\x01\x00\x00\x00\x04\x01\x00\xff\xff\xff\x7f"),
		"+Inf value": infBytes.Bytes(),
		"trailing":   trailing.Bytes(),
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/put?name=crafted", "application/octet-stream", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("/v1/put: status %d, want 400", resp.StatusCode)
			}
			b64 := base64.StdEncoding.EncodeToString(raw)
			for path, body := range map[string]string{
				"/v1/rank":       `{"sketch":"` + b64 + `"}`,
				"/v1/rank/batch": `{"trains":[{"name":"t","sketch":"` + b64 + `"}]}`,
			} {
				if status, resp := postJSON(t, ts.URL+path, body); status != http.StatusBadRequest {
					t.Errorf("%s: status %d, want 400 (body %s)", path, status, resp)
				}
			}
		})
	}
	if n, err := st.Len(); err != nil || n != 0 {
		t.Errorf("store holds %d sketches (%v), want none", n, err)
	}
}
