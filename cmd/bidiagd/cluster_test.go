package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

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

func TestClusterJobOptions(t *testing.T) {
	// Chan's rule: 192x64 prefers rbidiag, 96x96 does not.
	job, err := clusterJobOptions(nil, 192, 64, 2)
	if err != nil || !job.RBidiag || job.NB != 64 || job.WorkersPerNode != 2 {
		t.Fatalf("tall default: %+v %v", job, err)
	}
	job, err = clusterJobOptions(nil, 96, 96, 1)
	if err != nil || job.RBidiag {
		t.Fatalf("square default: %+v %v", job, err)
	}
	job, err = clusterJobOptions(&httpapi.Options{NB: 16, Algorithm: "rbidiag", Workers: 3}, 96, 96, 1)
	if err != nil || !job.RBidiag || job.NB != 16 || job.WorkersPerNode != 3 {
		t.Fatalf("explicit: %+v %v", job, err)
	}
	if _, err := clusterJobOptions(&httpapi.Options{Tree: "greedy"}, 96, 96, 1); err == nil {
		t.Fatal("unsupported tree knob accepted")
	}
	if _, err := clusterJobOptions(&httpapi.Options{Algorithm: "bogus"}, 96, 96, 1); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}

// TestClusterHTTPSurface runs the head's HTTP handlers against an
// in-process mesh (head + 1 peer over a ChanTransport) and checks the
// values endpoint against the single-process daemon, plus the 501 SVD
// stub and the health/metrics documents.
func TestClusterHTTPSurface(t *testing.T) {
	grid := dist.Grid{R: 2, C: 1}
	tr := dist.NewChanTransport(grid.Nodes())
	defer tr.Close()
	var peerWG sync.WaitGroup
	peerWG.Add(1)
	var peerErr error
	go func() {
		defer peerWG.Done()
		peerErr = cluster.ServePeer(cluster.Config{Grid: grid, Transport: tr, Rank: 1, StallTimeout: 30 * time.Second})
	}()
	head, err := cluster.NewHead(cluster.Config{Grid: grid, Transport: tr, Rank: 0, StallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h := &clusterServer{
		head: head, wpn: 2, nodes: 2, grid: grid, tr: tr,
		start: time.Now(), maxBody: defaultMaxBody,
		traces: newClusterTraceStore(traceStoreCap),
	}
	ts := httptest.NewServer(h.mux())
	defer ts.Close()
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
	// A wide matrix is a client error — cluster mode has no transpose
	// path — and must be a 400 like the other validation failures, not
	// a 500 from the head.
	wide := httpapi.Job{Matrix: httpapi.Matrix{M: 2, N: 3, Data: []float64{1, 2, 3, 4, 5, 6}}}
	if _, err := cl.PostValues(context.Background(), wide, false); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("wide matrix in cluster mode: %v, want 400", err)
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
		`bidiagd_cluster_jobs_total{result="done"} 2`,
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

	if err := head.Close(); err != nil {
		t.Fatal(err)
	}
	peerWG.Wait()
	if peerErr != nil {
		t.Fatalf("peer: %v", peerErr)
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
	grid := dist.Grid{R: 2, C: 1}
	trs, err := dist.LoopbackTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	var peerWG sync.WaitGroup
	peerWG.Add(1)
	var peerErr error
	go func() {
		defer peerWG.Done()
		peerErr = cluster.ServePeer(cluster.Config{Grid: grid, Transport: trs[1], Rank: 1, StallTimeout: 30 * time.Second})
	}()
	head, err := cluster.NewHead(cluster.Config{Grid: grid, Transport: trs[0], Rank: 0, StallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h := &clusterServer{
		head: head, wpn: 2, nodes: 2, grid: grid, tr: trs[0],
		start: time.Now(), maxBody: defaultMaxBody,
		traces: newClusterTraceStore(traceStoreCap),
	}
	ts := httptest.NewServer(h.mux())
	defer ts.Close()
	peer := &peerServer{rank: 1, nodes: 2, grid: grid, tr: trs[1], start: time.Now()}
	pts := httptest.NewServer(peer.mux())
	defer pts.Close()
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

	if err := head.Close(); err != nil {
		t.Fatal(err)
	}
	peerWG.Wait()
	if peerErr != nil {
		t.Fatalf("peer: %v", peerErr)
	}
}

// TestClusterTraceStoreEviction mirrors the single-process store test
// for the merged-trace store.
func TestClusterTraceStoreEviction(t *testing.T) {
	store := newClusterTraceStore(2)
	mt := &cluster.MergedTrace{Ranks: 2, WPN: 1}
	id1 := store.put(mt)
	id2 := store.put(mt)
	id3 := store.put(mt)
	if _, ok := store.get(id1); ok {
		t.Fatal("oldest trace not evicted")
	}
	for _, id := range []string{id2, id3} {
		if _, ok := store.get(id); !ok {
			t.Fatalf("trace %s missing", id)
		}
	}
}
