//go:build !race

// The race detector's sync.Pool drops a random quarter of what is put
// back, so the decoder's recycled matrix is not measurable under -race.

package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"github.com/tiled-la/bidiag/httpapi"
)

// TestRouterSizedBodyAllocatesOnce: an honest request whose declared
// length fits httpapi's up-front cap is forwarded from one buffer of that
// length, not one that doubled as the bytes arrived (2.5 times the body).
func TestRouterSizedBodyAllocatesOnce(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("{}"))
	}))
	defer backend.Close()
	h := newRouter([]string{backend.URL}, 64, 8<<20).mux()
	const m, n = 512, 256
	data := make([]float64, m*n)
	for i := range data {
		data[i] = float64(i%97) / 64
	}
	body, err := httpapi.EncodeJob(httpapi.Job{Matrix: httpapi.Matrix{M: m, N: n, Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	post := func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/singular-values", bytes.NewReader(body))
		r.Header.Set("Content-Type", httpapi.BinaryMediaType)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	post()
	post()
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		post()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d bytes per request for a %d-byte body", best, len(body))
	if best > uint64(len(body))*3/2 {
		t.Fatalf("routing a %d-byte body allocates %d bytes, over 1.5 times the body", len(body), best)
	}
}
