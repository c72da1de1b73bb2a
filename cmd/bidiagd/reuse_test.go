package main

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/httpapi"
	"github.com/tiled-la/bidiag/internal/nla"
)

// The tests in this file check that recycling a served request's memory —
// the matrix it was decoded into, and its job's tiles, band and chase
// work — never shows in an answer.

// reuseMatrix is an m×n input whose entries depend on seed; scale sets
// their magnitude, so leftovers of another matrix would show.
func reuseMatrix(seed float64, m, n int, scale float64) httpapi.Matrix {
	data := make([]float64, m*n)
	for i := range data {
		data[i] = scale * math.Sin(seed+0.37*float64(i)) * math.Ldexp(1, i%7-3)
	}
	return httpapi.Matrix{M: m, N: n, Data: data}
}

// serveBinary posts job to path through h as a sized binary body and
// returns the status and, for a 200, every word of the answer.
func serveBinary(t *testing.T, ctx context.Context, h http.Handler, path string, job httpapi.Job) (int, []float64) {
	t.Helper()
	blob, err := httpapi.EncodeJob(job)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequestWithContext(ctx, http.MethodPost, path, bytes.NewReader(blob))
	r.Header.Set("Content-Type", httpapi.BinaryMediaType)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		return w.Code, nil
	}
	if path == "/v1/svd" {
		var out httpapi.SVDResponse
		if err := httpapi.DecodeResponse(w.Body, int64(w.Body.Len()), &out); err != nil {
			t.Fatal(err)
		}
		return w.Code, slices.Concat(out.U.Data, out.S, out.V.Data)
	}
	var out httpapi.ValuesResponse
	if err := httpapi.DecodeResponse(w.Body, int64(w.Body.Len()), &out); err != nil {
		t.Fatal(err)
	}
	return w.Code, out.S
}

func sameWords(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// uncachedHandler is the daemon's mux over a service without a result
// cache, so every POST runs its job.
func uncachedHandler(t *testing.T) (http.Handler, *bidiag.Service) {
	svc := bidiag.NewService(&bidiag.ServiceConfig{Workers: 2, CacheBytes: -1})
	t.Cleanup(svc.Close)
	return newMux(svc, nil, time.Now(), 0), svc
}

// TestServedReuseNeverShows posts B, then A, then B again: the second B
// decodes into A's recycled body buffer and runs on A's recycled tiles,
// band and chase work, and must answer bit for bit as the first did.
func TestServedReuseNeverShows(t *testing.T) {
	const nb = 16
	h, _ := uncachedHandler(t)
	ctx := context.Background()
	for _, c := range []struct {
		name string
		m, n int
	}{
		{"tall", 320, 48}, // R-BIDIAG by Chan's rule
		{"square", 96, 96},
		{"wide", 64, 160},
		{"ragged", 5*nb + 1, 112}, // m = NB·p + 1
	} {
		for _, path := range []string{"/v1/singular-values", "/v1/svd"} {
			t.Run(c.name+path, func(t *testing.T) {
				opts := &httpapi.Options{NB: nb}
				b := httpapi.Job{Matrix: reuseMatrix(1, c.m, c.n, 1), Options: opts}
				a := httpapi.Job{Matrix: reuseMatrix(2, c.m, c.n, 1e3), Options: opts}
				nla.DropIdle() // fresh pools: the first B runs on zeroed memory
				_, first := serveBinary(t, ctx, h, path, b)
				if status, _ := serveBinary(t, ctx, h, path, a); status != http.StatusOK {
					t.Fatalf("A: status %d", status)
				}
				_, again := serveBinary(t, ctx, h, path, b)
				if len(first) == 0 || !sameWords(first, again) {
					t.Fatalf("B after A differs from B on fresh memory")
				}
			})
		}
	}
}

// TestServedReuseAfterFailedRequest follows a refused request (a NaN in
// the body: 400) and a request cancelled while its job runs with B, which
// must answer as it did before either: neither left memory behind that a
// later request sees, nor gave back memory its job may still read. All
// three are one shape, so each could draw the others' body buffer.
func TestServedReuseAfterFailedRequest(t *testing.T) {
	const m, n = 512, 256
	h, svc := uncachedHandler(t)
	bg := context.Background()
	opts := &httpapi.Options{NB: 32}
	b := httpapi.Job{Matrix: reuseMatrix(3, m, n, 1), Options: opts}
	_, want := serveBinary(t, bg, h, "/v1/singular-values", b)
	if len(want) == 0 {
		t.Fatal("B failed")
	}
	check := func(after string) {
		t.Helper()
		if _, got := serveBinary(t, bg, h, "/v1/singular-values", b); !sameWords(got, want) {
			t.Fatalf("B after %s differs", after)
		}
	}

	nan := httpapi.Job{Matrix: reuseMatrix(4, m, n, 1e3), Options: opts}
	nan.Data[len(nan.Data)/2] = math.NaN()
	if status, _ := serveBinary(t, bg, h, "/v1/singular-values", nan); status != http.StatusBadRequest {
		t.Fatalf("NaN body: status %d, want 400", status)
	}
	check("a NaN body")

	blob, err := httpapi.EncodeJob(httpapi.Job{Matrix: reuseMatrix(5, m, n, 1e3), Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	r := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/singular-values", bytes.NewReader(blob))
	r.Header.Set("Content-Type", httpapi.BinaryMediaType)
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(httptest.NewRecorder(), r)
		close(done)
	}()
	for svc.Stats().InFlight == 0 {
		select {
		case <-done:
			t.Fatal("the job to cancel ended before it was dispatched")
		case <-time.After(100 * time.Microsecond):
		}
	}
	cancel()
	<-done
	check("a cancelled job")
}
