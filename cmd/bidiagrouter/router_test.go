package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/client"
	"github.com/tiled-la/bidiag/httpapi"
)

// TestRingDistribution checks the vnode spread: with three backends no
// backend owns a wildly disproportionate share of the keyspace.
func TestRingDistribution(t *testing.T) {
	backends := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newRing(backends, 128)
	counts := map[string]int{}
	const keys = 30000
	for i := 0; i < keys; i++ {
		counts[r.lookup(fmt.Sprintf("key-%d", i))]++
	}
	for _, b := range backends {
		share := float64(counts[b]) / keys
		if share < 0.20 || share > 0.50 {
			t.Fatalf("backend %s owns %.1f%% of the keyspace: %v", b, 100*share, counts)
		}
	}
}

// TestRingStability pins the consistent-hashing contract: removing one
// backend moves ONLY the keys that pointed at it — every key owned by a
// surviving backend keeps its owner.
func TestRingStability(t *testing.T) {
	all := []string{"http://a:1", "http://b:1", "http://c:1"}
	before := newRing(all, 128)
	after := newRing(all[:2], 128) // c removed
	const keys = 20000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		was, is := before.lookup(key), after.lookup(key)
		if was != all[2] {
			if is != was {
				t.Fatalf("key %s moved %s -> %s though its owner survived", key, was, is)
			}
			continue
		}
		moved++
	}
	// The moved fraction is exactly c's former share: roughly a third.
	if frac := float64(moved) / keys; frac < 0.15 || frac > 0.55 {
		t.Fatalf("removing 1 of 3 backends moved %.1f%% of keys", 100*frac)
	}
}

// TestRingSequence checks the failover order starts at the owner and
// covers every backend exactly once.
func TestRingSequence(t *testing.T) {
	backends := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newRing(backends, 64)
	seq := r.sequence("some-key")
	if len(seq) != 3 || seq[0] != r.lookup("some-key") {
		t.Fatalf("sequence %v, lookup %s", seq, r.lookup("some-key"))
	}
	seen := map[string]bool{}
	for _, b := range seq {
		if seen[b] {
			t.Fatalf("backend %s repeated in %v", b, seq)
		}
		seen[b] = true
	}
}

// fakeBackend is a stub bidiagd: it answers health checks and returns a
// values response tagged with its ID, counting the jobs it served.
func fakeBackend(t *testing.T, id float64) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("POST /v1/singular-values", func(w http.ResponseWriter, r *http.Request) {
		req, status, err := httpapi.ReadRequest(w, r, 1<<20)
		if err != nil {
			w.WriteHeader(status)
			return
		}
		served.Add(1)
		httpapi.WriteResponse(w, req.Binary, httpapi.ValuesResponse{S: []float64{id}})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &served
}

func postJob(t *testing.T, cl *client.Client, seed float64) *httpapi.ValuesResponse {
	t.Helper()
	job := httpapi.Job{Matrix: httpapi.Matrix{M: 2, N: 1, Data: []float64{seed, 1}}}
	out, err := cl.PostValues(context.Background(), job, false)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRouterAffinityAndFailover drives the full router: identical jobs
// stick to one backend, distinct jobs spread, a dead backend fails over
// without surfacing an error, and metrics/health report it all.
func TestRouterAffinityAndFailover(t *testing.T) {
	b1, served1 := fakeBackend(t, 1)
	b2, served2 := fakeBackend(t, 2)
	rt := newRouter([]string{b1.URL, b2.URL}, 128, 32<<20)
	rt.probeAll(context.Background())
	ts := httptest.NewServer(rt.mux())
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)

	// The same job three times: exactly one backend serves all three.
	first := postJob(t, cl, 42).S[0]
	for i := 0; i < 2; i++ {
		if got := postJob(t, cl, 42).S[0]; got != first {
			t.Fatalf("repeat job moved backends: %v then %v", first, got)
		}
	}
	owner, other := served1, served2
	deadTS, liveID := b1, 2.0
	if first == 2 {
		owner, other = served2, served1
		deadTS, liveID = b2, 1.0
	}
	if owner.Load() != 3 || other.Load() != 0 {
		t.Fatalf("affinity broken: owner served %d, other %d", owner.Load(), other.Load())
	}

	// Many distinct jobs: both backends get traffic.
	for i := 0; i < 64; i++ {
		postJob(t, cl, 100+float64(i))
	}
	if served1.Load() == 0 || served2.Load() == 0 {
		t.Fatalf("distinct jobs did not spread: %d vs %d", served1.Load(), served2.Load())
	}

	// Kill the owner: the SAME job now fails over to the survivor,
	// transparently to the client.
	deadTS.Close()
	if got := postJob(t, cl, 42).S[0]; got != liveID {
		t.Fatalf("failover returned backend %v, want %v", got, liveID)
	}

	// Health and metrics reflect the dead backend and the retry.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		Backends []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
		} `json:"backends"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || len(health.Backends) != 2 {
		t.Fatalf("healthz: %+v %v", health, err)
	}
	healthyCount := 0
	for _, b := range health.Backends {
		if b.Healthy {
			healthyCount++
		}
	}
	if health.Status != "ok" || healthyCount != 1 {
		t.Fatalf("healthz after kill: %+v", health)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	n, _ := mresp.Body.Read(buf)
	mresp.Body.Close()
	text := string(buf[:n])
	for _, want := range []string{
		"bidiagrouter_requests_total",
		`result="routed"`,
		`result="retried"`,
		"bidiagrouter_backend_healthy",
		"bidiagrouter_backend_attempt_seconds_bucket",
		"bidiagrouter_backend_attempt_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
	// Every forward attempt — including the dial failure that triggered
	// the failover — is observed against its backend.
	var attempts uint64
	for _, b := range rt.backends {
		attempts += b.latency.Snapshot().Count
	}
	if routed := rt.backends[b1.URL].routed.Load() + rt.backends[b2.URL].routed.Load(); attempts <= uint64(routed) {
		t.Fatalf("attempt histograms hold %d observations, want > %d routed (dial failures observed too)", attempts, routed)
	}
}

// TestRouterRelaysServedErrors pins the no-blind-retry rule: a backend
// that ANSWERS with an error (429 here) is authoritative — the router
// relays status, message, and Retry-After instead of retrying the job
// elsewhere.
func TestRouterRelaysServedErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(`{}`)) })
	var hits atomic.Int64
	mux.HandleFunc("POST /v1/singular-values", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(httpapi.ErrorResponse{Error: "queue full"})
	})
	busy := httptest.NewServer(mux)
	t.Cleanup(busy.Close)
	spare, spareServed := fakeBackend(t, 9)
	_ = spare

	rt := newRouter([]string{busy.URL}, 64, 32<<20)
	rt.probeAll(context.Background())
	ts := httptest.NewServer(rt.mux())
	t.Cleanup(ts.Close)

	_, err := client.New(ts.URL).PostValues(context.Background(),
		httpapi.Job{Matrix: httpapi.Matrix{M: 1, N: 1, Data: []float64{1}}}, false)
	if !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("router did not relay 429: %v", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Message != "queue full" {
		t.Fatalf("backend message lost: %v", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("served error retried: %d hits", hits.Load())
	}
	if spareServed.Load() != 0 {
		t.Fatal("429 must not fail over to another backend")
	}
}

// TestRouterBadRequestShortCircuits checks malformed jobs die at the
// router without touching any backend.
func TestRouterBadRequestShortCircuits(t *testing.T) {
	b, served := fakeBackend(t, 1)
	rt := newRouter([]string{b.URL}, 64, 32<<20)
	rt.probeAll(context.Background())
	ts := httptest.NewServer(rt.mux())
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)

	_, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: httpapi.Matrix{M: 3, N: 3, Data: []float64{1}}}, false)
	if !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("shape mismatch: %v, want 400", err)
	}
	_, err = cl.PostValues(context.Background(), httpapi.Job{
		Matrix:  httpapi.Matrix{M: 1, N: 1, Data: []float64{1}},
		Options: &httpapi.Options{Tree: "bogus"},
	}, false)
	if !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("bogus options: %v, want 400", err)
	}
	// A shape whose element count wraps an int to the empty data's 0 used
	// to pass validation and panic in CacheKey.
	resp, err := http.Post(ts.URL+"/v1/singular-values", "", strings.NewReader(`{"m":4294967296,"n":4294967296,"data":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing shape: status %d, want 400", resp.StatusCode)
	}
	if served.Load() != 0 {
		t.Fatalf("bad requests reached a backend %d times", served.Load())
	}
}

// TestRouterForwardsBytesUntouched: the backend receives the body the
// router received — same bytes, same Content-Type, same query — in
// either codec, and the client receives the backend's answer the same
// way: status, headers and bytes.
func TestRouterForwardsBytesUntouched(t *testing.T) {
	type post struct {
		uri, contentType string
		body             []byte
	}
	var mu sync.Mutex
	var got []post
	answer := []byte("\x00any bytes at all\xff")
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		got = append(got, post{r.URL.RequestURI(), r.Header.Get("Content-Type"), body})
		mu.Unlock()
		w.Header().Set("Content-Type", "application/x-test")
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusAccepted)
		w.Write(answer)
	}))
	t.Cleanup(backend.Close)
	rt := newRouter([]string{backend.URL}, 64, 32<<20)
	ts := httptest.NewServer(rt.mux())
	t.Cleanup(ts.Close)

	job := httpapi.Job{Matrix: httpapi.Matrix{M: 2, N: 2, Data: []float64{1, 2, 3, 4}}, Options: &httpapi.Options{NB: 1}}
	frame, err := httpapi.EncodeJob(job)
	if err != nil {
		t.Fatal(err)
	}
	text, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	sent := []post{
		{"/v1/singular-values", httpapi.BinaryMediaType, frame},
		{"/v1/svd?trace=1", "application/x-www-form-urlencoded", text},
		{"/v1/singular-values?trace=0", "", text},
	}
	for _, p := range sent {
		req, err := http.NewRequest(http.MethodPost, ts.URL+p.uri, bytes.NewReader(p.body))
		if err != nil {
			t.Fatal(err)
		}
		if p.contentType != "" {
			req.Header.Set("Content-Type", p.contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Content-Type") != "application/x-test" ||
			resp.Header.Get("Retry-After") != "7" || !bytes.Equal(body, answer) {
			t.Fatalf("%s: relayed %d %q %q, want the backend's answer untouched", p.uri, resp.StatusCode, resp.Header.Get("Content-Type"), body)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(sent) {
		t.Fatalf("backend saw %d posts, want %d", len(got), len(sent))
	}
	for i, p := range sent {
		if got[i].uri != p.uri || got[i].contentType != p.contentType || !bytes.Equal(got[i].body, p.body) {
			t.Fatalf("post %d reached the backend as %s %q (%d bytes), sent %s %q (%d bytes)",
				i, got[i].uri, got[i].contentType, len(got[i].body), p.uri, p.contentType, len(p.body))
		}
	}
}

// TestRouterAllBackendsDown checks the terminal 502.
func TestRouterAllBackendsDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()
	rt := newRouter([]string{url}, 64, 32<<20)
	ts := httptest.NewServer(rt.mux())
	t.Cleanup(ts.Close)

	_, err := client.New(ts.URL).PostValues(context.Background(),
		httpapi.Job{Matrix: httpapi.Matrix{M: 1, N: 1, Data: []float64{1}}}, false)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("all-down: %v, want 502", err)
	}
}

// The health loop is exercised end to end in CI's cluster smoke; here
// just pin that a probe cycle flips a dead backend to unhealthy.
func TestHealthProbe(t *testing.T) {
	b, _ := fakeBackend(t, 1)
	rt := newRouter([]string{b.URL}, 64, 32<<20)
	rt.probeAll(context.Background())
	if !rt.backends[b.URL].healthy.Load() {
		t.Fatal("live backend probed unhealthy")
	}
	b.Close()
	rt.probeAll(context.Background())
	if rt.backends[b.URL].healthy.Load() {
		t.Fatal("dead backend probed healthy")
	}
}

// TestRouterReuseKeepsAffinity posts B, then A, then B again. The router
// releases each decoded matrix once it has the key, so the second B is
// decoded into the buffer A was: it must still reach the owner of B's key,
// as the bytes it was sent.
func TestRouterReuseKeepsAffinity(t *testing.T) {
	var mu sync.Mutex
	got := map[string][][]byte{} // backend URL -> bodies received
	var urls []string
	for range 3 {
		var ts *httptest.Server
		ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			mu.Lock()
			got[ts.URL] = append(got[ts.URL], body)
			mu.Unlock()
			httpapi.WriteResponse(w, true, httpapi.ValuesResponse{S: []float64{1}})
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt := newRouter(urls, 64, 32<<20)
	ts := httptest.NewServer(rt.mux())
	t.Cleanup(ts.Close)

	job := func(scale float64) (httpapi.Job, []byte) {
		j := httpapi.Job{Matrix: httpapi.Matrix{M: 96, N: 96, Data: make([]float64, 96*96)}}
		for i := range j.Data {
			j.Data[i] = scale * float64(i%13-6)
		}
		frame, err := httpapi.EncodeJob(j)
		if err != nil {
			t.Fatal(err)
		}
		return j, frame
	}
	b, bFrame := job(1)
	_, aFrame := job(1e3)
	dense, err := b.Dense()
	if err != nil {
		t.Fatal(err)
	}
	opts, _ := b.Options.ToOptions()
	owner := rt.ring.sequence(bidiag.CacheKey(bidiag.JobSingularValues, dense, opts))[0]
	for _, frame := range [][]byte{bFrame, aFrame, bFrame} {
		resp, err := http.Post(ts.URL+"/v1/singular-values", httpapi.BinaryMediaType, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	var toOwner [][]byte
	for _, body := range got[owner] {
		if bytes.Equal(body, bFrame) {
			toOwner = append(toOwner, body)
		}
	}
	if len(toOwner) != 2 {
		t.Fatalf("B's owner %s received B %d times, want 2", owner, len(toOwner))
	}
}
