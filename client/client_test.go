package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/tiled-la/bidiag/client"
	"github.com/tiled-la/bidiag/httpapi"
)

// seen is what an echo server observed of one job POST.
type seen struct {
	path, query, contentType string
	job                      httpapi.Job
}

// echoServer stands in for bidiagd: it reads a job through the daemon's
// own front door and answers in the daemon's framing with the matrix it
// received as U, that matrix's first column as S and a 1×1 V — so a test
// sees exactly what crossed the wire in each direction. The real solver
// behind the real mux is driven through this client in cmd/bidiagd's
// tests.
func echoServer(t *testing.T, maxBody int64) (*httptest.Server, func() []seen) {
	t.Helper()
	var mu sync.Mutex
	var log []seen
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, status, err := httpapi.ReadRequest(w, r, maxBody)
		if err != nil {
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(httpapi.ErrorResponse{Error: err.Error()})
			return
		}
		mu.Lock()
		log = append(log, seen{r.URL.Path, r.URL.RawQuery, r.Header.Get("Content-Type"), req.Job})
		mu.Unlock()
		s := req.Data[:req.M]
		if r.URL.Path == "/v1/svd" {
			httpapi.WriteResponse(w, req.Binary, httpapi.SVDResponse{
				U: req.Matrix, S: s, V: httpapi.Matrix{M: 1, N: 1, Data: []float64{-1}}, Ms: 0.5, JobID: "j000007",
			})
			return
		}
		httpapi.WriteResponse(w, req.Binary, httpapi.ValuesResponse{S: s, CacheHit: true, Ms: 0.25})
	}))
	t.Cleanup(ts.Close)
	return ts, func() []seen {
		mu.Lock()
		defer mu.Unlock()
		return append([]seen(nil), log...)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// extremes holds the entries a text codec is most likely to bend: signed
// zero, the smallest subnormal, the largest subnormal, 2^±498-scaled
// values, neighbours one ulp apart.
var extremes = []float64{
	math.Copysign(0, -1), 5e-324, 2.225073858507201e-308,
	math.Ldexp(1.7, 498), math.Ldexp(-1.1, -498), 1, 1.0000000000000002, -math.MaxFloat64,
}

// TestJobsCrossTheWireBitForBit: every job goes out as one binary frame
// and its answer comes back as one; matrix, options (absent, empty, set),
// the trace flag, factors and metadata all arrive unchanged.
func TestJobsCrossTheWireBitForBit(t *testing.T) {
	ts, observed := echoServer(t, 1<<20)
	cl := client.New(ts.URL + "/")
	ctx := context.Background()
	m := httpapi.Matrix{M: 4, N: 2, Data: extremes}

	svd, err := cl.PostSVD(ctx, httpapi.Job{Matrix: m, Options: &httpapi.Options{NB: 2, Tree: "greedy"}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if svd.U.M != 4 || svd.U.N != 2 || !sameBits(svd.U.Data, extremes) || !sameBits(svd.S, extremes[:4]) ||
		svd.V.M != 1 || svd.V.N != 1 || svd.V.Data[0] != -1 || svd.CacheHit || svd.Ms != 0.5 || svd.JobID != "j000007" {
		t.Fatalf("svd answer changed on the way back: %+v", svd)
	}
	vals, err := cl.PostValues(ctx, httpapi.Job{Matrix: m, Options: &httpapi.Options{}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(vals.S, extremes[:4]) || !vals.CacheHit || vals.Ms != 0.25 || vals.JobID != "" {
		t.Fatalf("values answer changed on the way back: %+v", vals)
	}
	// The Dense entry points post the same frames.
	a, err := m.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if out, err := cl.SingularValues(ctx, a, nil); err != nil || !sameBits(out.S, extremes[:4]) {
		t.Fatalf("SingularValues: %+v %v", out, err)
	}
	if out, err := cl.SVD(ctx, a, &httpapi.Options{Auto: true}); err != nil || !sameBits(out.U.Data, extremes) {
		t.Fatalf("SVD: %+v %v", out, err)
	}

	got := observed()
	want := []struct {
		path, query string
		opts        *httpapi.Options
	}{
		{"/v1/svd", "trace=1", &httpapi.Options{NB: 2, Tree: "greedy"}},
		{"/v1/singular-values", "", &httpapi.Options{}},
		{"/v1/singular-values", "", nil},
		{"/v1/svd", "", &httpapi.Options{Auto: true}},
	}
	if len(got) != len(want) {
		t.Fatalf("server saw %d posts, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.path != w.path || g.query != w.query || g.contentType != httpapi.BinaryMediaType ||
			g.job.M != 4 || g.job.N != 2 || !sameBits(g.job.Data, extremes) || !reflect.DeepEqual(g.job.Options, w.opts) {
			t.Fatalf("post %d arrived as %+v, want %+v", i, g, w)
		}
	}
}

// TestRefusalsSurfaceAsAPIError: whatever the request codec, a refusal is
// a JSON error document, lifted to *APIError with the server's message
// and matched by the package's sentinels.
func TestRefusalsSurfaceAsAPIError(t *testing.T) {
	ts, _ := echoServer(t, 1<<10)
	cl := client.New(ts.URL)
	ctx := context.Background()
	status := func(err error) (int, string) {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("error %v (%T) is not an *APIError", err, err)
		}
		return apiErr.Status, apiErr.Message
	}

	// 400: the frame's shape and its payload disagree.
	_, err := cl.PostValues(ctx, httpapi.Job{Matrix: httpapi.Matrix{M: 3, N: 3, Data: []float64{1}}}, false)
	if code, msg := status(err); code != http.StatusBadRequest || msg == "" || !errors.Is(err, client.ErrBadRequest) || errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("shape mismatch: %d %q %v", code, msg, err)
	}
	_, err = cl.PostSVD(ctx, httpapi.Job{Matrix: httpapi.Matrix{M: 1, N: 1, Data: []float64{1}}, Options: &httpapi.Options{Tree: "bogus"}}, false)
	if code, msg := status(err); code != http.StatusBadRequest || !strings.Contains(msg, "bogus") {
		t.Fatalf("bogus tree: %d %q", code, msg)
	}
	// 413: 256 float64 words do not fit a 1 KiB cap.
	_, err = cl.PostValues(ctx, httpapi.Job{Matrix: httpapi.Matrix{M: 16, N: 16, Data: make([]float64, 256)}}, false)
	if code, msg := status(err); code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "1024") || errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("oversized body: %d %q", code, msg)
	}

	// 429 and 503 as the daemon writes them.
	for _, tc := range []struct {
		code       int
		overloaded bool
	}{{http.StatusTooManyRequests, true}, {http.StatusServiceUnavailable, false}} {
		busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(tc.code)
			json.NewEncoder(w).Encode(httpapi.ErrorResponse{Error: "queue full"})
		}))
		_, err := client.New(busy.URL).PostValues(ctx, httpapi.Job{Matrix: httpapi.Matrix{M: 1, N: 1, Data: []float64{1}}}, false)
		busy.Close()
		if code, msg := status(err); code != tc.code || msg != "queue full" || errors.Is(err, client.ErrOverloaded) != tc.overloaded {
			t.Fatalf("status %d: got %d %q, overloaded %v", tc.code, code, msg, errors.Is(err, client.ErrOverloaded))
		}
	}

	// A 200 that is not a frame is an error, not a silent zero value.
	odd := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"s":[1],"cache_hit":false,"ms":1}`))
	}))
	defer odd.Close()
	if out, err := client.New(odd.URL).PostValues(ctx, httpapi.Job{Matrix: httpapi.Matrix{M: 1, N: 1, Data: []float64{1}}}, false); err == nil {
		t.Fatalf("unframed 200 decoded as %+v", out)
	}
}

// TestStatsHealthzTrace covers the GET side against canned documents.
func TestStatsHealthzTrace(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"cmdline":["bidiagd"],"bidiagd":{"jobs_done":3,"cache_hit_rate":0.5}}`))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok","workers":2}`))
	})
	mux.HandleFunc("GET /debug/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") != "j 1" {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(httpapi.ErrorResponse{Error: "no trace"})
			return
		}
		w.Write([]byte(`[{"ph":"X"}]`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()
	if cl.BaseURL() != ts.URL {
		t.Fatalf("BaseURL %q", cl.BaseURL())
	}
	if st, err := cl.Stats(ctx); err != nil || st["jobs_done"] != 3.0 || st["cache_hit_rate"] != 0.5 {
		t.Fatalf("Stats: %v %v", st, err)
	}
	if h, err := cl.Healthz(ctx); err != nil || h["status"] != "ok" {
		t.Fatalf("Healthz: %v %v", h, err)
	}
	if tr, err := cl.Trace(ctx, "j 1"); err != nil || string(tr) != `[{"ph":"X"}]` {
		t.Fatalf("Trace: %s %v", tr, err)
	}
	var apiErr *client.APIError
	if _, err := cl.Trace(ctx, "missing"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Message != "no trace" {
		t.Fatalf("missing trace: %v", err)
	}
	if !client.IsUnreachable(func() error { ts.Close(); _, err := cl.Healthz(ctx); return err }()) {
		t.Fatal("closed server is not reported unreachable")
	}
}
