//go:build !race

// The race detector's sync.Pool drops a random quarter of what is put
// back, so recycling is not measurable under -race.

package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/httpapi"
)

// TestServedTallAllocation guards the recycling of a served request's
// memory: once warm, a binary tall POST decodes into a recycled buffer
// and runs on recycled tiles, band and chase work, so the daemon
// allocates a quarter of its body at most, where it was the body again
// plus the job's graphs (about 1.2 times the body).
func TestServedTallAllocation(t *testing.T) {
	const m, n = 2048, 128
	svc := bidiag.NewService(&bidiag.ServiceConfig{Workers: 2})
	ts := httptest.NewServer(newMux(svc, nil, time.Now(), 0))
	t.Cleanup(func() { ts.Close(); svc.Close() })

	job := httpapi.Job{Matrix: reuseMatrix(7, m, n, 1), Options: &httpapi.Options{}}
	blob, err := httpapi.EncodeJob(job)
	if err != nil {
		t.Fatal(err)
	}
	payload, flips := len(blob)-8*m*n, 0
	post := func() {
		// Every request a cache miss: flip one more word's sign bit.
		blob[payload+8*flips+7] ^= 0x80
		flips++
		resp, err := http.Post(ts.URL+"/v1/singular-values", httpapi.BinaryMediaType, bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
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
	body := uint64(len(blob))
	t.Logf("%d bytes per request, %.1f%% of the %d-byte body", best, 100*float64(best)/float64(body), body)
	if best > body/4 {
		t.Fatalf("a warm %d×%d binary POST allocates %d bytes, over a quarter of its %d-byte body", m, n, best, body)
	}
}
