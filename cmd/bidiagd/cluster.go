package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/tiled-la/bidiag/httpapi"
	"github.com/tiled-la/bidiag/internal/cluster"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/obs"
)

// runCluster is bidiagd's multi-process mode (-node/-peers): one process
// per grid node, a TCP mesh between them, rank 0 fronting the cluster
// with the /v1/singular-values HTTP surface. Peers serve jobs until the
// head shuts them down (or the mesh closes) and then exit.
func runCluster(node int, peerList, gridSpec, addr string, workers int, stall time.Duration, maxBody int64) error {
	addrs := strings.Split(peerList, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
		if addrs[i] == "" {
			return fmt.Errorf("-peers entry %d is empty", i)
		}
	}
	grid, err := parseGrid(gridSpec, len(addrs))
	if err != nil {
		return err
	}
	if grid.Nodes() != len(addrs) {
		return fmt.Errorf("-grid %s needs %d processes, -peers lists %d", gridSpec, grid.Nodes(), len(addrs))
	}
	if node < 0 || node >= len(addrs) {
		return fmt.Errorf("-node %d outside the %d-entry peer list", node, len(addrs))
	}
	if workers < 1 {
		workers = 1
	}

	log.Printf("bidiagd node %d/%d joining mesh (grid %dx%d)", node, len(addrs), grid.R, grid.C)
	tr, err := dist.NewTCPTransport(context.Background(), node, addrs, nil)
	if err != nil {
		return err
	}
	defer tr.Close()
	cfg := cluster.Config{Grid: grid, Transport: tr, Rank: node, StallTimeout: stall}

	if node != 0 {
		log.Printf("bidiagd node %d serving peer jobs", node)
		// Every rank exposes its own wire telemetry: the head's /metrics
		// only sees the head's ends of the links, so dashboards scrape
		// each process. Best-effort — a peer without a usable -addr still
		// computes, it just isn't scrapable.
		if addr != "" {
			ps := &peerServer{rank: node, nodes: len(addrs), grid: grid, tr: tr, start: time.Now()}
			go func() {
				if err := http.ListenAndServe(addr, ps.mux()); err != nil {
					log.Printf("bidiagd node %d: telemetry server on %s: %v", node, addr, err)
				}
			}()
		}
		return cluster.ServePeer(cfg)
	}

	head, err := cluster.NewHead(cfg)
	if err != nil {
		return err
	}
	defer head.Close()
	if maxBody <= 0 {
		maxBody = defaultMaxBody
	}
	h := &clusterServer{
		head: head, wpn: workers, nodes: len(addrs), grid: grid,
		tr: tr, start: time.Now(), maxBody: maxBody,
		traces: newClusterTraceStore(traceStoreCap),
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           h.mux(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("bidiagd cluster head listening on %s (%d nodes, %d workers/node)", addr, len(addrs), workers)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("received %s; shutting down cluster", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// parseGrid reads an "RxC" spec; an empty spec defaults to one process
// column per node (Nx1), the layout with the fewest column exchanges.
func parseGrid(spec string, nodes int) (dist.Grid, error) {
	if spec == "" {
		return dist.Grid{R: nodes, C: 1}, nil
	}
	var r, c int
	if _, err := fmt.Sscanf(strings.ToLower(spec), "%dx%d", &r, &c); err != nil {
		return dist.Grid{}, fmt.Errorf("-grid %q: want RxC", spec)
	}
	g := dist.Grid{R: r, C: c}
	if err := g.Validate(); err != nil {
		return dist.Grid{}, err
	}
	return g, nil
}

// clusterServer is the head's HTTP surface: the values endpoint of the
// v1 API over the mesh, plus health and metrics. SVD needs the recorded
// reflector stacks, which live only on their owning ranks, so it is
// explicitly 501 rather than silently wrong.
type clusterServer struct {
	head  *cluster.Head
	wpn   int
	nodes int
	grid  dist.Grid
	// tr is the head's raw transport (not the Head's demux wrapper): the
	// per-link and clock series come straight from its always-on
	// telemetry.
	tr      dist.Transport
	start   time.Time
	maxBody int64
	traces  *clusterTraceStore

	jobsDone     atomic.Int64
	jobsFailed   atomic.Int64
	commBytes    atomic.Int64
	traceDropped atomic.Int64
}

func (s *clusterServer) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/singular-values", s.handleValues)
	mux.HandleFunc("POST /v1/svd", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotImplemented,
			errors.New("cluster mode serves /v1/singular-values only; full SVD needs single-process bidiagd"))
	})
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	return mux
}

// clusterJobOptions lowers wire options to a cluster job. The cluster
// path has no planner and no bulge-chase stage choice, so any knob it
// cannot honor is a 400, not a silent ignore.
func clusterJobOptions(o *httpapi.Options, m, n, wpn int) (cluster.JobOptions, error) {
	job := cluster.JobOptions{NB: 64, WorkersPerNode: wpn}
	// Chan's operation-count rule, as in bidiag.AutoAlgorithm.
	job.RBidiag = 3*m >= 5*n
	if o == nil {
		return job, nil
	}
	if o.Tree != "" || o.BND2BD != "" || o.Gamma != 0 || o.Window != 0 || o.Auto {
		return job, errors.New("cluster mode supports only nb, algorithm and workers options")
	}
	if o.NB > 0 {
		job.NB = o.NB
	}
	if o.Workers > 0 {
		job.WorkersPerNode = o.Workers
	}
	switch o.Algorithm {
	case "", "auto":
	case "bidiag":
		job.RBidiag = false
	case "rbidiag":
		job.RBidiag = true
	default:
		return job, fmt.Errorf("unknown algorithm %q", o.Algorithm)
	}
	return job, nil
}

// handleValues runs one job over the mesh. ?trace=1 gathers a
// distributed trace: every rank records its task and comm events, the
// head clock-aligns the merge, and the response's job_id keys
// GET /debug/trace/{job_id}.
func (s *clusterServer) handleValues(w http.ResponseWriter, r *http.Request) {
	req, status, err := httpapi.ReadRequest(w, r, s.maxBody)
	if err != nil {
		httpError(w, status, err)
		return
	}
	if err := req.A.CheckFinite(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// The cluster head does not transpose wide inputs the way
	// single-process GE2BND does, so m < n is a client error here —
	// keep it a 400, matching the single-process error contract.
	if req.M < req.N {
		httpError(w, http.StatusBadRequest, fmt.Errorf("cluster mode requires m >= n (got %dx%d); submit the transpose", req.M, req.N))
		return
	}
	opt, err := clusterJobOptions(req.Options, req.M, req.N, s.wpn)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	opt.Trace = req.Trace

	begin := time.Now()
	jr, err := s.head.Run(nla.FromColMajor(req.M, req.N, req.M, req.Data), opt)
	if err != nil {
		s.jobsFailed.Add(1)
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.jobsDone.Add(1)
	s.commBytes.Add(int64(jr.Exec.CommVolume))
	jobID := ""
	if jr.Trace != nil {
		jobID = s.traces.put(jr.Trace)
		s.traceDropped.Add(jr.Trace.DroppedTotal())
	}
	ms := float64(time.Since(begin)) / float64(time.Millisecond)
	writeResult(w, req, httpapi.ValuesResponse{S: jr.Values, Ms: ms, JobID: jobID})
}

// handleTrace serves a gathered multi-rank trace: Chrome-tracing JSON by
// default (one process lane per rank, flow arrows send→recv), the
// cluster.MergedTrace document itself with ?format=raw.
func (s *clusterServer) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	mt, ok := s.traces.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no trace for job %q (traces are kept for the last %d traced jobs)", id, traceStoreCap))
		return
	}
	var render func(*cluster.MergedTrace) error
	switch r.URL.Query().Get("format") {
	case "", "chrome":
		render = func(mt *cluster.MergedTrace) error { return mt.WriteChrome(w) }
	case "raw":
		render = func(mt *cluster.MergedTrace) error { return mt.WriteJSON(w) }
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown trace format %q (want chrome or raw)", r.URL.Query().Get("format")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := render(mt); err != nil {
		log.Printf("write trace %s: %v", id, err)
	}
}

// clusterTraceStore retains recently gathered multi-rank traces, keyed
// by the job ID returned in the POST response; old entries are evicted
// FIFO just like the single-process traceStore.
type clusterTraceStore struct {
	mu    sync.Mutex
	next  uint64
	cap   int
	order []string
	byID  map[string]*cluster.MergedTrace
}

func newClusterTraceStore(cap int) *clusterTraceStore {
	return &clusterTraceStore{cap: cap, byID: make(map[string]*cluster.MergedTrace)}
}

func (ts *clusterTraceStore) put(mt *cluster.MergedTrace) string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.next++
	id := fmt.Sprintf("j%06d", ts.next)
	if len(ts.order) == ts.cap {
		delete(ts.byID, ts.order[0])
		ts.order = ts.order[1:]
	}
	ts.order = append(ts.order, id)
	ts.byID[id] = mt
	return id
}

func (ts *clusterTraceStore) get(id string) (*cluster.MergedTrace, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	mt, ok := ts.byID[id]
	return mt, ok
}

func (s *clusterServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"mode":           "cluster",
		"rank":           0,
		"nodes":          s.nodes,
		"grid":           fmt.Sprintf("%dx%d", s.grid.R, s.grid.C),
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *clusterServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := obs.NewRegistry()
	counter := func(name, help string, v float64) { reg.Counter(name, help, func() float64 { return v }) }
	reg.Gauge("bidiagd_cluster_nodes", "Processes in the mesh.", func() float64 { return float64(s.nodes) })
	reg.Gauge("bidiagd_uptime_seconds", "Seconds since the head started.", func() float64 { return time.Since(s.start).Seconds() })
	reg.LabeledCounter("bidiagd_cluster_jobs_total", "Cluster jobs by outcome.", func() []obs.LabeledValue {
		return []obs.LabeledValue{
			{Label: `result="done"`, Value: float64(s.jobsDone.Load())},
			{Label: `result="failed"`, Value: float64(s.jobsFailed.Load())},
		}
	})
	counter("bidiagd_cluster_comm_bytes_total", "Modeled communication volume sent by the head (matches SimulateDistributed).", float64(s.commBytes.Load()))
	counter("bidiagd_trace_dropped_events_total", "Trace-ring events dropped across gathered ?trace=1 jobs.", float64(s.traceDropped.Load()))
	// The per-link series supersede the former global
	// bidiagd_cluster_wire_{bytes,frames}_total counters: summing
	// bidiagd_link_sent_bytes_total over `to` recovers the old figure,
	// and the split shows which link carries the traffic.
	registerLinkMetrics(reg, s.tr)
	reg.ServeHTTP(w, r)
}

// registerLinkMetrics adds one rank's always-on wire telemetry to a
// scrape registry: per-link counters and latency histograms (labelled
// from/to by rank) plus the handshake clock estimate per peer. Both the
// head's and the peers' /metrics use it, so a 2-rank mesh exposes both
// directions of every link.
func registerLinkMetrics(reg *obs.Registry, tr dist.Transport) {
	if ls, ok := tr.(dist.LinkStatser); ok {
		stats := ls.Links()
		rank := stats.Rank()
		links := stats.Snapshot()
		sent := func(f func(dist.LinkSnapshot) int64) func() []obs.LabeledValue {
			return func() []obs.LabeledValue {
				out := make([]obs.LabeledValue, len(links))
				for i, l := range links {
					out[i] = obs.LabeledValue{Label: fmt.Sprintf(`from="%d",to="%d"`, rank, l.Peer), Value: float64(f(l))}
				}
				return out
			}
		}
		recv := func(f func(dist.LinkSnapshot) int64) func() []obs.LabeledValue {
			return func() []obs.LabeledValue {
				out := make([]obs.LabeledValue, len(links))
				for i, l := range links {
					out[i] = obs.LabeledValue{Label: fmt.Sprintf(`from="%d",to="%d"`, l.Peer, rank), Value: float64(f(l))}
				}
				return out
			}
		}
		reg.LabeledCounter("bidiagd_link_sent_frames_total", "Frames this rank sent per link.",
			sent(func(l dist.LinkSnapshot) int64 { return l.SentFrames }))
		reg.LabeledCounter("bidiagd_link_sent_bytes_total", "Wire bytes this rank sent per link, framing included.",
			sent(func(l dist.LinkSnapshot) int64 { return l.SentWireBytes }))
		reg.LabeledCounter("bidiagd_link_sent_payload_bytes_total", "Payload bytes this rank sent per link.",
			sent(func(l dist.LinkSnapshot) int64 { return l.SentPayloadBytes }))
		reg.LabeledCounter("bidiagd_link_recv_frames_total", "Frames this rank received per link.",
			recv(func(l dist.LinkSnapshot) int64 { return l.RecvFrames }))
		reg.LabeledCounter("bidiagd_link_recv_bytes_total", "Wire bytes this rank received per link, framing included.",
			recv(func(l dist.LinkSnapshot) int64 { return l.RecvWireBytes }))
		reg.LabeledHistogram("bidiagd_link_send_seconds", "Per-frame transport send latency (framing, syscall, TCP backpressure) per link.",
			func() []obs.LabeledHist {
				out := make([]obs.LabeledHist, len(links))
				for i, l := range links {
					out[i] = obs.LabeledHist{Label: fmt.Sprintf(`from="%d",to="%d"`, rank, l.Peer), Hist: l.SendSeconds}
				}
				return out
			})
		reg.LabeledHistogram("bidiagd_link_queue_wait_seconds", "Time frames sat in the executor outbox before the NIC picked them up, per link.",
			func() []obs.LabeledHist {
				out := make([]obs.LabeledHist, len(links))
				for i, l := range links {
					out[i] = obs.LabeledHist{Label: fmt.Sprintf(`from="%d",to="%d"`, rank, l.Peer), Hist: l.QueueWaitSeconds}
				}
				return out
			})
	}
	if cs, ok := tr.(dist.ClockSyncer); ok {
		syncs := cs.ClockSyncs()
		reg.LabeledGauge("bidiagd_clock_offset_seconds", "Handshake clock-offset estimate to each peer (peer minus local).",
			func() []obs.LabeledValue {
				out := make([]obs.LabeledValue, len(syncs))
				for i, c := range syncs {
					out[i] = obs.LabeledValue{Label: fmt.Sprintf(`peer="%d"`, c.Peer), Value: c.Offset.Seconds()}
				}
				return out
			})
		reg.LabeledGauge("bidiagd_clock_rtt_seconds", "Best probe round-trip time to each peer (bounds the offset error to ±rtt/2).",
			func() []obs.LabeledValue {
				out := make([]obs.LabeledValue, len(syncs))
				for i, c := range syncs {
					out[i] = obs.LabeledValue{Label: fmt.Sprintf(`peer="%d"`, c.Peer), Value: c.RTT.Seconds()}
				}
				return out
			})
	}
}

// peerServer is a compute rank's telemetry-only HTTP surface: liveness
// plus the rank's ends of the per-link wire series. It serves no jobs —
// work arrives over the mesh.
type peerServer struct {
	rank  int
	nodes int
	grid  dist.Grid
	tr    dist.Transport
	start time.Time
}

func (s *peerServer) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *peerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"mode":           "cluster",
		"rank":           s.rank,
		"nodes":          s.nodes,
		"grid":           fmt.Sprintf("%dx%d", s.grid.R, s.grid.C),
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *peerServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := obs.NewRegistry()
	reg.Gauge("bidiagd_cluster_nodes", "Processes in the mesh.", func() float64 { return float64(s.nodes) })
	reg.Gauge("bidiagd_uptime_seconds", "Seconds since this rank started.", func() float64 { return time.Since(s.start).Seconds() })
	registerLinkMetrics(reg, s.tr)
	reg.ServeHTTP(w, r)
}
