package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/client"
	"github.com/tiled-la/bidiag/httpapi"
	"github.com/tiled-la/bidiag/internal/cluster"
	"github.com/tiled-la/bidiag/internal/plan"
)

func testServer(t *testing.T) (*httptest.Server, *bidiag.Service) {
	t.Helper()
	svc := bidiag.NewService(&bidiag.ServiceConfig{Workers: 2})
	ts := httptest.NewServer(newMux(svc, nil, time.Now(), 0))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts, svc
}

// diag212 is the 3x2 matrix with diagonal (1, 2): singular values 2, 1.
var diag212 = httpapi.Matrix{M: 3, N: 2, Data: []float64{1, 0, 0, 0, 2, 0}}

func TestSingularValuesEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	cl := client.New(ts.URL)
	out, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: diag212}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.S) != 2 || math.Abs(out.S[0]-2) > 1e-12 || math.Abs(out.S[1]-1) > 1e-12 {
		t.Fatalf("s = %v, want [2 1]", out.S)
	}

	// The same request again is a cache hit.
	out2, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: diag212}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.CacheHit {
		t.Fatal("repeat request should hit the cache")
	}
}

// TestClientMirrorsService checks the Dense-based client entry points —
// the ones mirroring bidiag.Service — against a direct library run.
func TestClientMirrorsService(t *testing.T) {
	ts, _ := testServer(t)
	cl := client.New(ts.URL)
	a, err := diag212.Dense()
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.SingularValues(context.Background(), a, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bidiag.SingularValues(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.S) != len(want) {
		t.Fatalf("%d singular values, want %d", len(out.S), len(want))
	}
	for i := range want {
		if math.Abs(out.S[i]-want[i]) > 1e-12 {
			t.Fatalf("s[%d] = %v, want %v", i, out.S[i], want[i])
		}
	}
}

func TestSVDEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	cl := client.New(ts.URL)
	out, err := cl.PostSVD(context.Background(), httpapi.Job{Matrix: diag212}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.S) != 2 || math.Abs(out.S[0]-2) > 1e-12 || math.Abs(out.S[1]-1) > 1e-12 {
		t.Fatalf("s = %v, want [2 1]", out.S)
	}
	if out.U.M != 3 || out.U.N != 2 || out.V.M != 2 || out.V.N != 2 {
		t.Fatalf("vector shapes: U %dx%d, V %dx%d", out.U.M, out.U.N, out.V.M, out.V.N)
	}
	// Reconstruct A = U diag(S) Vᵀ and compare.
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			acc := 0.0
			for k := 0; k < 2; k++ {
				acc += out.U.Data[i+k*3] * out.S[k] * out.V.Data[j+k*2]
			}
			want := diag212.Data[i+j*3]
			if math.Abs(acc-want) > 1e-12 {
				t.Fatalf("reconstruction (%d,%d) = %v, want %v", i, j, acc, want)
			}
		}
	}
}

// TestSVDEndpointMatchesOneWorker: a /v1/svd job on the 2-worker
// service, whose back half runs on the service's shared workers, is bit
// for bit the library's Workers: 1 decomposition.
func TestSVDEndpointMatchesOneWorker(t *testing.T) {
	ts, _ := testServer(t)
	cl := client.New(ts.URL)
	const m, n = 200, 120
	a := bidiag.NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, math.Sin(float64(3*i+7*j)))
		}
	}
	out, err := cl.SVD(context.Background(), a, &httpapi.Options{NB: 16, Tree: "greedy", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := bidiag.SVD(a, &bidiag.Options{NB: 16, Tree: bidiag.Greedy, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := range want.S {
		if math.Float64bits(out.S[k]) != math.Float64bits(want.S[k]) {
			t.Fatalf("s[%d] = %v, the one-worker call gives %v", k, out.S[k], want.S[k])
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if math.Float64bits(out.U.Data[i+j*m]) != math.Float64bits(want.U.At(i, j)) {
				t.Fatalf("U(%d,%d) differs bitwise from the one-worker call", i, j)
			}
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(out.V.Data[i+j*n]) != math.Float64bits(want.V.At(i, j)) {
				t.Fatalf("V(%d,%d) differs bitwise from the one-worker call", i, j)
			}
		}
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := testServer(t)
	cl := client.New(ts.URL)
	for _, tc := range []struct {
		name string
		job  httpapi.Job
	}{
		{"short data", httpapi.Job{Matrix: httpapi.Matrix{M: 4, N: 4, Data: []float64{1}}}},
		{"zero shape", httpapi.Job{Matrix: httpapi.Matrix{M: 0, N: 3}}},
		{"bad tree", httpapi.Job{Matrix: diag212, Options: &httpapi.Options{Tree: "bogus"}}},
		{"bad algorithm", httpapi.Job{Matrix: diag212, Options: &httpapi.Options{Algorithm: "bogus"}}},
	} {
		_, err := cl.PostValues(context.Background(), tc.job, false)
		if !errors.Is(err, client.ErrBadRequest) {
			t.Fatalf("%s: err %v, want ErrBadRequest", tc.name, err)
		}
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Message == "" {
			t.Fatalf("%s: error carries no server message: %v", tc.name, err)
		}
	}
	// Malformed JSON, and the only spellings of a non-finite entry a JSON
	// body has: all refused at the door.
	for _, body := range []string{
		"{not json",
		`{"m":1,"n":1,"data":[NaN]}`,
		`{"m":1,"n":1,"data":[1e999]}`,
		`{"m":1,"n":1,"data":[-Infinity]}`,
		// 2³²·2³² wraps to 0 = len(data): this body used to pass the shape
		// check and panic in the solver, dropping the connection.
		`{"m":4294967296,"n":4294967296,"data":[]}`,
	} {
		for _, path := range []string{"/v1/svd", "/v1/singular-values"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %s: status %d, want 400", path, body, resp.StatusCode)
			}
		}
	}
}

// A non-finite matrix is the client's error: 400 carrying the library's
// ErrNonFinite message, not a late 500. JSON cannot spell such an entry;
// a binary body can, so this goes through the whole stack.
func TestNonFiniteMatrixIs400(t *testing.T) {
	ts, _ := testServer(t)
	cl := client.New(ts.URL)
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		job := httpapi.Job{Matrix: httpapi.Matrix{M: 2, N: 2, Data: []float64{1, 0, 0, bad}}}
		for _, post := range []func() error{
			func() error { _, err := cl.PostValues(context.Background(), job, false); return err },
			func() error { _, err := cl.PostSVD(context.Background(), job, false); return err },
		} {
			err := post()
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || !strings.Contains(apiErr.Message, "non-finite") {
				t.Fatalf("entry %v: %v, want 400 naming the non-finite entry", bad, err)
			}
		}
	}
}

// TestNumericalFailureIs500: a finite matrix near the overflow threshold
// drives the reduction to NaN singular values. The result check fails the
// job before it is published: 500 with an error body on either codec,
// counted as numerical, and the identical request that follows is
// computed again, not served from the cache.
func TestNumericalFailureIs500(t *testing.T) {
	ts, svc := testServer(t)
	cl := client.New(ts.URL)
	m := httpapi.Matrix{M: 8, N: 8, Data: make([]float64, 64)}
	for i := range m.Data {
		m.Data[i] = 1e308 * math.Sin(float64(i)+0.5)
	}
	job := httpapi.Job{Matrix: m, Options: &httpapi.Options{NB: 4}}
	blob, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/singular-values", "", strings.NewReader(string(blob)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "numerical") {
			t.Fatalf("JSON post %d: %d %s, want 500 naming the numerical check", i, resp.StatusCode, body)
		}
		_, err = cl.PostValues(context.Background(), job, false)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError || !strings.Contains(apiErr.Message, "numerical") {
			t.Fatalf("binary post %d: %v, want 500 naming the numerical check", i, err)
		}
	}
	if st := svc.Stats(); st.JobsNumerical != 4 || st.CacheHits != 0 || st.CacheEntries != 0 {
		t.Fatalf("stats after four posts: numerical %d, cache hits %d, entries %d; want 4, 0, 0", st.JobsNumerical, st.CacheHits, st.CacheEntries)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), `bidiagd_jobs_total{result="numerical"} 4`) {
		t.Fatalf("metrics do not count the numerical failures:\n%s", text)
	}
}

// TestWorkersCap: a request's workers field sizes the SVD back half's
// pools, so the daemon takes it up to the larger of its pool size and
// the CPU count and answers anything above with 400 before starting a
// goroutine for it.
func TestWorkersCap(t *testing.T) {
	ts, svc := testServer(t)
	cl := client.New(ts.URL)
	limit := max(svc.Stats().Workers, runtime.NumCPU())
	for _, post := range []func(workers int) error{
		func(w int) error {
			_, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: diag212, Options: &httpapi.Options{Workers: w}}, false)
			return err
		},
		func(w int) error {
			_, err := cl.PostSVD(context.Background(), httpapi.Job{Matrix: diag212, Options: &httpapi.Options{Workers: w}}, false)
			return err
		},
	} {
		if err := post(limit); err != nil {
			t.Fatalf("workers at the cap (%d): %v", limit, err)
		}
		for _, w := range []int{limit + 1, 65536, 1 << 30} {
			var apiErr *client.APIError
			if err := post(w); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || !strings.Contains(apiErr.Message, "Workers") {
				t.Fatalf("workers %d above the cap %d: %v, want 400 naming Options.Workers", w, limit, err)
			}
		}
	}
}

// TestCodecsAgreeBitwise posts the same matrix as a JSON body (raw, as
// curl would) and through the client's binary frames, in both orders: S,
// U and V agree bit for bit, and whichever comes second is a cache hit —
// the cache key is over the matrix content, not over the wire bytes.
func TestCodecsAgreeBitwise(t *testing.T) {
	ts, _ := testServer(t)
	cl := client.New(ts.URL)
	matrix := func(seed float64) httpapi.Matrix {
		m := httpapi.Matrix{M: 24, N: 16, Data: make([]float64, 24*16)}
		for i := range m.Data {
			m.Data[i] = math.Sin(seed+float64(i)*0.7) * math.Ldexp(1, i%9-4)
		}
		m.Data[5], m.Data[6], m.Data[7] = math.Copysign(0, -1), 5e-324, 1.0000000000000002
		return m
	}
	postJSON := func(path string, job httpapi.Job, out any) {
		t.Helper()
		blob, err := json.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "", strings.NewReader(string(blob)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("JSON post: status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	same := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) || len(a) == 0 {
			t.Fatalf("%s: %d vs %d elements", what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d]: JSON %x, binary %x", what, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
			}
		}
	}

	// JSON first, binary second.
	job := httpapi.Job{Matrix: matrix(1), Options: &httpapi.Options{NB: 8}}
	var viaJSON httpapi.SVDResponse
	postJSON("/v1/svd", job, &viaJSON)
	viaClient, err := cl.PostSVD(context.Background(), job, false)
	if err != nil {
		t.Fatal(err)
	}
	if viaJSON.CacheHit || !viaClient.CacheHit {
		t.Fatalf("cache_hit: JSON first %v, binary second %v; want false, true", viaJSON.CacheHit, viaClient.CacheHit)
	}
	if viaClient.U.M != 24 || viaClient.U.N != 16 || viaClient.V.M != 16 || viaClient.V.N != 16 {
		t.Fatalf("factor shapes: U %dx%d, V %dx%d", viaClient.U.M, viaClient.U.N, viaClient.V.M, viaClient.V.N)
	}
	same("s", viaJSON.S, viaClient.S)
	same("u", viaJSON.U.Data, viaClient.U.Data)
	same("v", viaJSON.V.Data, viaClient.V.Data)

	// Binary first, JSON second, on the values endpoint with no options.
	job = httpapi.Job{Matrix: matrix(2)}
	first, err := cl.PostValues(context.Background(), job, false)
	if err != nil {
		t.Fatal(err)
	}
	var second httpapi.ValuesResponse
	postJSON("/v1/singular-values", job, &second)
	if first.CacheHit || !second.CacheHit {
		t.Fatalf("cache_hit: binary first %v, JSON second %v; want false, true", first.CacheHit, second.CacheHit)
	}
	same("s", second.S, first.S)
}

func TestHealthzAndMetrics(t *testing.T) {
	ts, _ := testServer(t)
	cl := client.New(ts.URL)
	if _, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: diag212}, false); err != nil {
		t.Fatal(err)
	}

	health, err := cl.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}

	stats, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats["jobs_done"].(float64) < 1 {
		t.Fatalf("stats: %v", stats)
	}
	for _, key := range []string{"queue_depth", "jobs_per_second", "latency_p50_ms", "latency_p99_ms", "cache_hit_rate", "workspace_bytes", "sched"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("stats missing %q: %v", key, stats)
		}
	}
}

// TestPrometheusMetrics pins the /metrics exposition: text format with
// the core series, including cumulative histogram buckets ending at +Inf.
func TestPrometheusMetrics(t *testing.T) {
	ts, _ := testServer(t)
	cl := client.New(ts.URL)
	if _, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: diag212}, false); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q, want Prometheus text exposition", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)
	for _, want := range []string{
		"# TYPE bidiagd_workers gauge",
		"# TYPE bidiagd_jobs_total counter",
		`bidiagd_jobs_total{result="done"} 1`,
		"# TYPE bidiagd_queue_depth gauge",
		"bidiagd_queue_depth 0",
		"# TYPE bidiagd_job_latency_seconds histogram",
		`bidiagd_job_latency_seconds_bucket{le="+Inf"} 1`,
		"bidiagd_job_latency_seconds_count 1",
		"# TYPE bidiagd_job_queue_wait_seconds histogram",
		"bidiagd_workspace_bytes",
		"# TYPE bidiagd_sched_ready_tasks gauge",
		"# TYPE bidiagd_sched_worker_idle_seconds_total counter",
		"# TYPE bidiagd_sched_wakeups_total counter",
		"bidiagd_cache_misses_total 1",
		"bidiagd_uptime_seconds",
		"# TYPE bidiagd_go_gc_cpu_seconds_total counter",
		"# TYPE bidiagd_go_heap_live_bytes gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
	// The runtime figures are read, not stubbed: a process that has run
	// a job has a live heap and has spent GC time after a forced cycle.
	runtime.GC()
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bidiagd_go_gc_cpu_seconds_total", "bidiagd_go_heap_live_bytes"} {
		var v float64
		for _, line := range strings.Split(string(blob), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == name {
				v, _ = strconv.ParseFloat(f[1], 64)
			}
		}
		if !(v > 0) {
			t.Fatalf("%s = %v, want a positive reading", name, v)
		}
	}
}

// TestServersAreIndependent pins the per-instance metrics fix: two
// servers in one process must each report their own service, not
// whichever installed itself into a process-global registry last.
func TestServersAreIndependent(t *testing.T) {
	ts1, _ := testServer(t)
	ts2, _ := testServer(t)
	if _, err := client.New(ts1.URL).PostValues(context.Background(), httpapi.Job{Matrix: diag212}, false); err != nil {
		t.Fatal(err)
	}

	jobsDone := func(url string) float64 {
		stats, err := client.New(url).Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return stats["jobs_done"].(float64)
	}
	if n := jobsDone(ts1.URL); n != 1 {
		t.Fatalf("server 1 jobs_done = %v, want 1", n)
	}
	if n := jobsDone(ts2.URL); n != 0 {
		t.Fatalf("server 2 jobs_done = %v, want 0 (leaked across instances)", n)
	}
}

// TestTraceRoundTrip posts a traced job and fetches its timeline as
// Chrome-tracing JSON.
func TestTraceRoundTrip(t *testing.T) {
	ts, _ := testServer(t)
	cl := client.New(ts.URL)
	out, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: diag212}, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.JobID == "" {
		t.Fatal("traced response lacks job_id")
	}
	if out.CacheHit {
		t.Fatal("traced job must not be served from the cache")
	}

	blob, err := cl.Trace(context.Background(), out.JobID)
	if err != nil {
		t.Fatal(err)
	}
	// The one renderer: a pool job is the one-rank case of a mesh trace —
	// metadata naming the lanes, then one complete ("X") slice per task.
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
		Meta struct {
			Ranks int `json:"ranks"`
			WPN   int `json:"wpn"`
		} `json:"metadata"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Meta.Ranks != 1 || doc.Meta.WPN != 2 {
		t.Fatalf("trace metadata %+v, want one rank of the pool's two workers", doc.Meta)
	}
	tasks := 0
	for i, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			tasks++
			if e.Name == "" || e.Dur < 0 || e.TS < 0 || e.PID != 0 || e.TID < 0 || e.TID > 1 {
				t.Fatalf("event %d malformed: %+v", i, e)
			}
		case "M":
		default:
			t.Fatalf("event %d: phase %q in a one-process trace", i, e.Ph)
		}
	}
	if tasks == 0 {
		t.Fatal("empty trace")
	}
	// The raw form is served in this mode too, and names no frames.
	resp, err := http.Get(ts.URL + "/debug/trace/" + out.JobID + "?format=raw")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Ranks  int `json:"ranks"`
		Events []struct {
			Op int `json:"op"`
		} `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&raw)
	resp.Body.Close()
	if err != nil || raw.Ranks != 1 || len(raw.Events) != tasks {
		t.Fatalf("raw trace: %v, %d ranks, %d events for %d rendered tasks", err, raw.Ranks, len(raw.Events), tasks)
	}
	if resp, err := http.Get(ts.URL + "/debug/trace/" + out.JobID + "?format=bogus"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus format: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// Unknown IDs 404; untraced jobs get no job_id.
	var apiErr *client.APIError
	if _, err := cl.Trace(context.Background(), "nosuch"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown trace: %v, want 404 APIError", err)
	}
	plain, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: diag212}, false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.JobID != "" {
		t.Fatalf("untraced response carries job_id %q", plain.JobID)
	}
}

// TestTraceEventCapOverflow bounds a traced job's rings below its task
// count: the job still finishes with a (partial) timeline, and the lost
// events are counted in the service stats and the Prometheus surface.
func TestTraceEventCapOverflow(t *testing.T) {
	svc := bidiag.NewService(&bidiag.ServiceConfig{Workers: 2, TraceEventCap: 1})
	ts := httptest.NewServer(newMux(svc, nil, time.Now(), 0))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	cl := client.New(ts.URL)

	// An 8x8 nb-1 reduction has far more than Workers×1 tasks, so the
	// one-slot rings must overflow.
	m := httpapi.Matrix{M: 8, N: 8, Data: make([]float64, 64)}
	for i := 0; i < 8; i++ {
		m.Data[i*8+i] = float64(i + 1)
	}
	out, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: m, Options: &httpapi.Options{NB: 1}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.JobID == "" {
		t.Fatal("capped traced job returned no job_id")
	}
	st := svc.Stats()
	if st.TraceDropped == 0 {
		t.Fatal("one-slot trace rings overflowed nothing")
	}
	text := getText(t, ts.URL+"/metrics")
	if !strings.Contains(text, "bidiagd_trace_dropped_events_total") {
		t.Fatalf("metrics missing bidiagd_trace_dropped_events_total:\n%s", text)
	}
	if strings.Contains(text, "bidiagd_trace_dropped_events_total 0\n") {
		t.Fatal("dropped-events counter stuck at zero after an overflow")
	}
}

// TestTraceStoreEviction pins the FIFO bound on retained traces.
func TestTraceStoreEviction(t *testing.T) {
	store := newTraceStore(2)
	id1 := store.put(&cluster.MergedTrace{})
	id2 := store.put(&cluster.MergedTrace{})
	id3 := store.put(&cluster.MergedTrace{})
	if _, ok := store.get(id1); ok {
		t.Fatal("oldest trace should have been evicted")
	}
	for _, id := range []string{id2, id3} {
		if _, ok := store.get(id); !ok {
			t.Fatalf("trace %s missing", id)
		}
	}
}

// TestPprofEndpoints checks the profiling surface responds.
func TestPprofEndpoints(t *testing.T) {
	ts, _ := testServer(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestBodyTooLarge pins the request-size bound: a body over the cap gets
// 413, not an allocation.
func TestBodyTooLarge(t *testing.T) {
	svc := bidiag.NewService(&bidiag.ServiceConfig{Workers: 1})
	ts := httptest.NewServer(newMux(svc, nil, time.Now(), 1<<10)) // 1 KiB cap
	t.Cleanup(func() { ts.Close(); svc.Close() })
	cl := client.New(ts.URL)

	big := httpapi.Job{Matrix: httpapi.Matrix{M: 32, N: 32, Data: make([]float64, 1024)}}
	var apiErr *client.APIError
	if _, err := cl.PostValues(context.Background(), big, false); !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %v, want 413 APIError", apiErr)
	}
	// A small request still works on the same server.
	if _, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: diag212}, false); err != nil {
		t.Fatalf("small body after 413: %v", err)
	}
}

// TestOptionsFreeRequestIsPlanned pins the autotuned path: a POST with
// no options object executes under a planner-chosen configuration, the
// decision shows up in the plan counters, and /debug/plans documents
// the profile.
func TestOptionsFreeRequestIsPlanned(t *testing.T) {
	ts, _ := testServer(t)
	cl := client.New(ts.URL)
	out, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: diag212}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.S) != 2 || math.Abs(out.S[0]-2) > 1e-12 || math.Abs(out.S[1]-1) > 1e-12 {
		t.Fatalf("s = %v, want [2 1]", out.S)
	}

	presp, err := http.Get(ts.URL + "/debug/plans")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	var plans struct {
		Version  int `json:"version"`
		Counters struct {
			Model uint64 `json:"model"`
		} `json:"counters"`
		Profiles []struct {
			Candidates []struct {
				Desc string `json:"desc"`
			} `json:"candidates"`
		} `json:"profiles"`
	}
	if err := json.NewDecoder(presp.Body).Decode(&plans); err != nil {
		t.Fatal(err)
	}
	if plans.Version != plan.StateVersion || len(plans.Profiles) == 0 {
		t.Fatalf("debug/plans is not a version-%d document with profiles: %+v", plan.StateVersion, plans)
	}
	if plans.Counters.Model == 0 {
		t.Fatal("options-free request did not count a model decision")
	}
	if len(plans.Profiles[0].Candidates) == 0 || plans.Profiles[0].Candidates[0].Desc == "" {
		t.Fatalf("profile candidates undocumented: %+v", plans.Profiles[0])
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	blob, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`bidiagd_plan_decisions_total{source="model"}`,
		"bidiagd_plan_promotions_total",
		"bidiagd_plan_profiles",
	} {
		if !strings.Contains(string(blob), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestPlanProfilesSurviveRestart drives a shape bucket to promotion,
// restarts the service on the same profile file, and checks the new
// daemon starts warm: the promotion is loaded and the next
// options-free request is served from the tuned plan.
func TestPlanProfilesSurviveRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profiles.json")
	cfg := &bidiag.ServiceConfig{Workers: 2, PlanProfiles: path, PlanMinSamples: 1}

	svc1 := bidiag.NewService(cfg)
	ts1 := httptest.NewServer(newMux(svc1, nil, time.Now(), 0))
	cl1 := client.New(ts1.URL)
	// Distinct matrices in one shape bucket: cache hits skip execution,
	// and only executed jobs feed the tuner.
	for i := 0; i < 6; i++ {
		job := httpapi.Job{Matrix: httpapi.Matrix{M: 3, N: 2, Data: []float64{1, 0, 0, 0, 2 + float64(i), 0}}}
		if _, err := cl1.PostValues(context.Background(), job, false); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
		if svc1.PlanCounters().Promotions > 0 {
			break
		}
	}
	if svc1.PlanCounters().Promotions == 0 {
		t.Fatal("profile never promoted despite MinSamples=1")
	}
	ts1.Close()
	svc1.Close()

	svc2 := bidiag.NewService(cfg)
	ts2 := httptest.NewServer(newMux(svc2, nil, time.Now(), 0))
	defer func() { ts2.Close(); svc2.Close() }()
	if svc2.PlanCounters().Loaded == 0 {
		t.Fatal("restart did not load persisted profiles")
	}
	job := httpapi.Job{Matrix: httpapi.Matrix{M: 3, N: 2, Data: []float64{1, 0, 0, 0, 9, 0}}}
	if _, err := client.New(ts2.URL).PostValues(context.Background(), job, false); err != nil {
		t.Fatalf("post after restart: %v", err)
	}
	if c := svc2.PlanCounters(); c.Tuned == 0 {
		t.Fatalf("restarted service did not serve the tuned plan: %+v", c)
	}
}

// TestAutoWithPinsRespectsThem checks "auto":true with a pinned nb
// plans around the pin rather than ignoring it.
func TestAutoWithPinsRespectsThem(t *testing.T) {
	ts, _ := testServer(t)
	job := httpapi.Job{Matrix: diag212, Options: &httpapi.Options{Auto: true, NB: 1}}
	out, err := client.New(ts.URL).PostValues(context.Background(), job, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.S) != 2 || math.Abs(out.S[0]-2) > 1e-12 {
		t.Fatalf("s = %v, want [2 1]", out.S)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/svd")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/svd: status %d, want 405", resp.StatusCode)
	}
}

// TestClientUnreachable pins the router's retry predicate: a dial
// failure is classified unreachable, a served error response is not.
func TestClientUnreachable(t *testing.T) {
	_, err := client.New("http://127.0.0.1:1").Healthz(context.Background())
	if err == nil || !client.IsUnreachable(err) {
		t.Fatalf("dial failure not classified unreachable: %v", err)
	}
	ts, _ := testServer(t)
	_, err = client.New(ts.URL).PostValues(context.Background(), httpapi.Job{}, false)
	if err == nil || client.IsUnreachable(err) {
		t.Fatalf("served 400 classified unreachable: %v", err)
	}
}

// TestCloseReturnsWithJobInFlight: shutting the service down while a job
// is mid-graph and earlier jobs' task-graph templates sit in the pools
// returns once that job has finished, well within the 10 s the daemon's
// SIGTERM smoke allows: nothing waits on a pooled template.
func TestCloseReturnsWithJobInFlight(t *testing.T) {
	svc := bidiag.NewService(&bidiag.ServiceConfig{Workers: 2, CacheBytes: -1})
	ts := httptest.NewServer(newMux(svc, nil, time.Now(), 0))
	defer ts.Close()
	cl := client.New(ts.URL)
	matrix := func(m, n int) httpapi.Matrix {
		data := make([]float64, m*n)
		for i := range data {
			data[i] = math.Sin(float64(i))
		}
		return httpapi.Matrix{M: m, N: n, Data: data}
	}
	for range 2 {
		if _, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: matrix(256, 64)}, false); err != nil {
			t.Fatal(err)
		}
	}
	inFlight := make(chan error, 1)
	go func() {
		_, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: matrix(1024, 512)}, false)
		inFlight <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); svc.Stats().InFlight == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the job never started")
		}
	}
	closed := make(chan struct{})
	start := time.Now()
	go func() {
		svc.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Logf("Close returned after %v", time.Since(start))
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return within 10 s of a job in flight")
	}
	if err := <-inFlight; err != nil {
		t.Fatalf("the job in flight at Close: %v", err)
	}
}

// An answer a JSON body cannot carry (a NaN singular value) must go out
// as a 500 with an error body, not as a 200 with an empty one; the binary
// codec carries NaN as it is.
func TestUnencodableAnswerIs500(t *testing.T) {
	for _, binary := range []bool{false, true} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeResult(w, &httpapi.Request{Binary: binary}, httpapi.ValuesResponse{S: []float64{1, math.NaN()}})
		}))
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		if binary {
			var vr httpapi.ValuesResponse
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("binary NaN answer: status %d, want 200", resp.StatusCode)
			}
			if err := httpapi.DecodeResponse(strings.NewReader(string(body)), int64(len(body)), &vr); err != nil || len(vr.S) != 2 || !math.IsNaN(vr.S[1]) {
				t.Fatalf("binary NaN answer: %v, s %v", err, vr.S)
			}
			continue
		}
		var e httpapi.ErrorResponse
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("JSON NaN answer: status %d, body %q, want 500", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "NaN") {
			t.Fatalf("JSON NaN answer: body %q (%v), want an error naming the NaN", body, err)
		}
	}
}
