package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/client"
	"github.com/tiled-la/bidiag/httpapi"
	"github.com/tiled-la/bidiag/internal/cluster"
	"github.com/tiled-la/bidiag/internal/dist"
)

func TestParseGrid(t *testing.T) {
	g, err := parseGrid("", 3)
	if err != nil || g.R != 3 || g.C != 1 {
		t.Fatalf("default grid: %+v %v", g, err)
	}
	g, err = parseGrid("2x3", 6)
	if err != nil || g.R != 2 || g.C != 3 {
		t.Fatalf("2x3: %+v %v", g, err)
	}
	for _, bad := range []string{"2", "x", "0x2", "-1x3"} {
		if _, err := parseGrid(bad, 4); err == nil {
			t.Fatalf("grid %q accepted", bad)
		}
	}
}

// testMesh boots a 2x1 mesh the way bidiagd does — rank 1 serving peer
// jobs and the telemetry half of the mux, rank 0 the daemon's full mux over a Service
// attached to the head, two workers a rank — and returns both servers.
// head and peer are the two ranks' transports (the same one for an
// in-process mesh); the cleanup shuts the mesh down and fails the test
// if the peer did not exit cleanly.
func testMesh(t *testing.T, head, peer dist.Transport) (hs, ps *httptest.Server) {
	t.Helper()
	cfg := cluster.Config{Grid: dist.Grid{R: 2, C: 1}, StallTimeout: 30 * time.Second}
	pm, hm := &mesh{cfg: cfg}, &mesh{cfg: cfg}
	pm.cfg.Rank, pm.cfg.Transport, hm.cfg.Transport = 1, peer, head
	peerErr := make(chan error, 1)
	go func() { peerErr <- cluster.ServePeer(pm.cfg) }()
	var err error
	if hm.head, err = cluster.NewHead(hm.cfg); err != nil {
		t.Fatal(err)
	}
	svc := bidiag.NewService(&bidiag.ServiceConfig{Workers: 2, Mesh: hm.head})
	hs = httptest.NewServer(newMux(svc, hm, time.Now(), 0))
	ps = httptest.NewServer(newMux(nil, pm, time.Now(), 0))
	t.Cleanup(func() {
		hs.Close()
		ps.Close()
		svc.Close()
		if err := hm.head.Close(); err != nil {
			t.Errorf("head close: %v", err)
		}
		if err := <-peerErr; err != nil {
			t.Errorf("peer: %v", err)
		}
		head.Close()
		if peer != head {
			peer.Close()
		}
	})
	return hs, ps
}

// tcpMesh is testMesh over a real 2-rank loopback-TCP mesh.
func tcpMesh(t *testing.T) (hs, ps *httptest.Server) {
	t.Helper()
	trs, err := dist.LoopbackTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	return testMesh(t, trs[0], trs[1])
}

// TestClusterHTTPSurface runs the head's HTTP handlers against an
// in-process mesh (head + 1 peer over a ChanTransport) and checks the
// values endpoint against the single-process daemon, plus the 501 SVD
// stub and the health/metrics documents.
func TestClusterHTTPSurface(t *testing.T) {
	tr := dist.NewChanTransport(2)
	ts, _ := testMesh(t, tr, tr)
	cl := client.New(ts.URL)

	out, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: diag212, Options: &httpapi.Options{NB: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.S) != 2 || math.Abs(out.S[0]-2) > 1e-12 || math.Abs(out.S[1]-1) > 1e-12 {
		t.Fatalf("cluster s = %v, want [2 1]", out.S)
	}

	// SVD is deliberately unimplemented in cluster mode.
	var apiErr *client.APIError
	if _, err := cl.PostSVD(context.Background(), httpapi.Job{Matrix: diag212}, false); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotImplemented {
		t.Fatalf("cluster SVD: %v, want 501", err)
	}
	// Unhonorable knobs are rejected, not ignored.
	if _, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: diag212, Options: &httpapi.Options{Auto: true}}, false); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("auto knob in cluster mode: %v, want 400", err)
	}
	// A wide matrix runs through its transpose, as on one process.
	wide := httpapi.Job{Matrix: httpapi.Matrix{M: 2, N: 3, Data: []float64{1, 2, 3, 4, 5, 6}}}
	if got, err := cl.PostValues(context.Background(), wide, false); err != nil || len(got.S) != 2 {
		t.Fatalf("wide matrix in cluster mode: %v %v, want two singular values", got, err)
	}

	// So is a non-finite entry, in the only spellings JSON has for one —
	// and a shape whose element count wraps an int to the empty data's 0.
	for _, body := range []string{`{"m":1,"n":1,"data":[NaN]}`, `{"m":1,"n":1,"data":[1e999]}`, `{"m":4294967296,"n":4294967296,"data":[]}`} {
		resp, err := http.Post(ts.URL+"/v1/singular-values", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s in cluster mode: status %d, want 400", body, resp.StatusCode)
		}
	}

	// A binary body can spell one outright; the head refuses it the same.
	if _, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: httpapi.Matrix{M: 1, N: 1, Data: []float64{math.NaN()}}}, false); !errors.Is(err, client.ErrBadRequest) || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN in a binary body in cluster mode: %v, want 400 naming the non-finite entry", err)
	}
	// The JSON codec stays served: same values as the client's frames got.
	resp, err := http.Post(ts.URL+"/v1/singular-values", "", strings.NewReader(`{"m":3,"n":2,"data":[1,0,0,0,2,0],"options":{"nb":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	var viaJSON httpapi.ValuesResponse
	err = json.NewDecoder(resp.Body).Decode(&viaJSON)
	resp.Body.Close()
	if err != nil || len(viaJSON.S) != 2 || viaJSON.S[0] != out.S[0] || viaJSON.S[1] != out.S[1] {
		t.Fatalf("cluster JSON answer %+v (%v), binary answer %v", viaJSON, err, out.S)
	}

	health, err := cl.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if health["mode"] != "cluster" || health["nodes"].(float64) != 2 {
		t.Fatalf("healthz: %v", health)
	}

	text := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		"bidiagd_cluster_nodes 2",
		`bidiagd_jobs_total{result="done"} 3`,
		"bidiagd_cluster_comm_bytes_total",
		"bidiagd_trace_dropped_events_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("cluster metrics missing %q in:\n%s", want, text)
		}
	}
	// The global wire counters were replaced by per-link series; a
	// ChanTransport has no links, so this surface simply omits them.
	if strings.Contains(text, "bidiagd_cluster_wire_bytes_total") {
		t.Fatalf("removed global wire counter still exported:\n%s", text)
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestClusterTraceHTTP drives the full distributed-tracing surface over
// a real 2-rank loopback-TCP mesh: a ?trace=1 job returns a job_id,
// /debug/trace/{id} renders Chrome JSON with one process lane per rank
// and flow arrows, ?format=raw round-trips through ParseMergedTrace, and
// both ranks' /metrics expose their ends of the per-link wire series.
func TestClusterTraceHTTP(t *testing.T) {
	ts, pts := tcpMesh(t)
	cl := client.New(ts.URL)

	out, err := cl.PostValues(context.Background(), httpapi.Job{Matrix: diag212, Options: &httpapi.Options{NB: 1}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.S) != 2 || math.Abs(out.S[0]-2) > 1e-12 || math.Abs(out.S[1]-1) > 1e-12 {
		t.Fatalf("traced cluster s = %v, want [2 1]", out.S)
	}
	if out.JobID == "" {
		t.Fatal("traced cluster job returned no job_id")
	}

	// Chrome rendering: per-rank process lanes and at least one flow
	// arrow (the mesh is real TCP, so frames crossed processes).
	blob, err := cl.Trace(context.Background(), out.JobID)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			PID int    `json:"pid"`
		} `json:"traceEvents"`
		Meta struct {
			Ranks int `json:"ranks"`
			WPN   int `json:"wpn"`
		} `json:"metadata"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("chrome document: %v", err)
	}
	if doc.Meta.Ranks != 2 || doc.Meta.WPN != 2 {
		t.Fatalf("chrome metadata: %+v", doc.Meta)
	}
	lanes := map[int]bool{}
	flows := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			lanes[ev.PID] = true
		}
		if ev.Ph == "s" {
			flows++
		}
	}
	if len(lanes) < 2 {
		t.Fatalf("events span %d process lanes, want both ranks", len(lanes))
	}
	if flows == 0 {
		t.Fatal("chrome trace has no flow arrows")
	}

	// Raw format parses back into a MergedTrace.
	resp, err := http.Get(ts.URL + "/debug/trace/" + out.JobID + "?format=raw")
	if err != nil {
		t.Fatal(err)
	}
	mt, err := cluster.ParseMergedTrace(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mt.Ranks != 2 || len(mt.Events) == 0 {
		t.Fatalf("raw trace: ranks %d, %d events", mt.Ranks, len(mt.Events))
	}

	// Unknown formats and unknown IDs are client errors.
	if resp, err := http.Get(ts.URL + "/debug/trace/" + out.JobID + "?format=bogus"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus format: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/debug/trace/nope"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}

	// Both ends of the link export their telemetry: the head sent frames
	// to rank 1 and vice versa, and the handshake clock gauges are there.
	headText := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		`bidiagd_link_sent_frames_total{from="0",to="1"}`,
		`bidiagd_link_recv_frames_total{from="1",to="0"}`,
		`bidiagd_link_sent_bytes_total{from="0",to="1"}`,
		`bidiagd_link_send_seconds_bucket{from="0",to="1",le=`,
		`bidiagd_link_queue_wait_seconds_count{from="0",to="1"}`,
		`bidiagd_clock_offset_seconds{peer="1"}`,
		`bidiagd_clock_rtt_seconds{peer="1"}`,
	} {
		if !strings.Contains(headText, want) {
			t.Fatalf("head metrics missing %q in:\n%s", want, headText)
		}
	}
	peerText := getText(t, pts.URL+"/metrics")
	for _, want := range []string{
		`bidiagd_link_sent_frames_total{from="1",to="0"}`,
		`bidiagd_link_recv_frames_total{from="0",to="1"}`,
		`bidiagd_clock_offset_seconds{peer="0"}`,
	} {
		if !strings.Contains(peerText, want) {
			t.Fatalf("peer metrics missing %q in:\n%s", want, peerText)
		}
	}
	ph, err := http.Get(pts.URL + "/healthz")
	if err != nil || ph.StatusCode != http.StatusOK {
		t.Fatalf("peer healthz: %v %v", ph, err)
	}
	ph.Body.Close()
}

// TestClusterIsTheOneService pins what the head gained by serving through
// the one Service, over a real 2-rank loopback-TCP mesh: the result
// cache, wide inputs, the /debug surface, the service's own metrics
// beside the mesh's, the one error mapping — and values that are
// bitwise the in-process Options.Distributed run of the same grid.
func TestClusterIsTheOneService(t *testing.T) {
	ts, _ := tcpMesh(t)
	cl := client.New(ts.URL)
	ctx := context.Background()

	const m, n, nb = 96, 40, 16
	rng := rand.New(rand.NewSource(7))
	tall := httpapi.Matrix{M: m, N: n, Data: make([]float64, m*n)}
	wide := httpapi.Matrix{M: n, N: m, Data: make([]float64, m*n)}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			v := rng.NormFloat64()
			tall.Data[i+j*m], wide.Data[j+i*n] = v, v
		}
	}
	a, err := tall.Dense()
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"bidiag", "rbidiag"} {
		algorithm, err := bidiag.ParseAlgorithm(alg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := bidiag.SingularValues(a, &bidiag.Options{NB: nb, Algorithm: algorithm,
			Distributed: &bidiag.DistOptions{GridRows: 2, GridCols: 1, WorkersPerNode: 2}})
		if err != nil {
			t.Fatal(err)
		}
		opts := &httpapi.Options{NB: nb, Algorithm: alg}
		first, err := cl.PostValues(ctx, httpapi.Job{Matrix: tall, Options: opts}, false)
		if err != nil {
			t.Fatal(err)
		}
		if first.CacheHit || len(first.S) != len(want) {
			t.Fatalf("%s: first answer %+v", alg, first)
		}
		for i := range want {
			if first.S[i] != want[i] {
				t.Fatalf("%s: value %d over the mesh %v, in-process distributed %v", alg, i, first.S[i], want[i])
			}
		}
		again, err := cl.PostValues(ctx, httpapi.Job{Matrix: tall, Options: opts}, false)
		if err != nil || !again.CacheHit {
			t.Fatalf("%s: repeated POST %+v (%v), want a cache hit", alg, again, err)
		}
		// The transpose is a different matrix to the cache and the same
		// problem to the mesh.
		tr, err := cl.PostValues(ctx, httpapi.Job{Matrix: wide, Options: opts}, false)
		if err != nil || tr.CacheHit {
			t.Fatalf("%s: wide input %+v (%v)", alg, tr, err)
		}
		for i := range want {
			if tr.S[i] != want[i] {
				t.Fatalf("%s: value %d of the wide input %v, of its transpose %v", alg, i, tr.S[i], want[i])
			}
		}
	}
	// No options at all: the library defaults, not the planner.
	if out, err := cl.PostValues(ctx, httpapi.Job{Matrix: diag212}, false); err != nil || len(out.S) != 2 {
		t.Fatalf("options-free job: %+v %v", out, err)
	}
	// Concurrent requests queue on the one mesh and all come back.
	burst := make(chan error, 4)
	for k := 0; k < cap(burst); k++ {
		go func(k int) {
			scaled := httpapi.Matrix{M: 3, N: 2, Data: []float64{float64(k + 3), 0, 0, 0, 1, 0}}
			out, err := cl.PostValues(ctx, httpapi.Job{Matrix: scaled, Options: &httpapi.Options{NB: 1}}, false)
			if err == nil && (len(out.S) != 2 || out.S[0] != float64(k+3)) {
				err = fmt.Errorf("job %d: s = %v", k, out.S)
			}
			burst <- err
		}(k)
	}
	for k := 0; k < cap(burst); k++ {
		if err := <-burst; err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/v1/svd", `{"m":3,"n":2,"data":[1,0,0,0,2,0]}`, http.StatusNotImplemented},
		{"/v1/singular-values", `{"m":3,"n":2,"data":[1,0,0,0,2,0],"options":{"tree":"greedy"}}`, http.StatusBadRequest},
		{"/v1/singular-values", `{"m":3,"n":2,"data":[1,0,0,0,2,0],"options":{"auto":true}}`, http.StatusBadRequest},
		{"/v1/singular-values", `{"m":3,"n":2,"data":[1,0,0,0,2,0],"options":{"tree":"bogus"}}`, http.StatusBadRequest},
		{"/v1/singular-values", `{"m":3,"n":2,"data":[1,0,0,0,2,0],"options":{"workers":65536}}`, http.StatusBadRequest},
		{"/v1/singular-values", `{"m":1,"n":1,"data":[1e999]}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status %d, want %d", tc.path, tc.body, resp.StatusCode, tc.status)
		}
	}
	for _, path := range []string{"/debug/vars", "/debug/pprof/cmdline", "/debug/plans"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s on the head: status %d", path, resp.StatusCode)
		}
	}
	text := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		`bidiagd_jobs_total{result="done"} 11`,
		`bidiagd_cache_hits_total 2`,
		`bidiagd_job_latency_seconds_bucket{le="+Inf"} 11`,
		"bidiagd_queue_depth 0",
		"bidiagd_cluster_nodes 2",
		`bidiagd_link_sent_frames_total{from="0",to="1"}`,
		`bidiagd_clock_rtt_seconds{peer="1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("head metrics missing %q in:\n%s", want, text)
		}
	}
}
