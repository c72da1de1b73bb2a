package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"sync"
	"time"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/httpapi"
	"github.com/tiled-la/bidiag/internal/cluster"
	"github.com/tiled-la/bidiag/internal/obs"
)

// server is the daemon's HTTP surface over one bidiag.Service, in both
// modes: on a cluster head the service runs its jobs over the mesh and
// the health and metrics documents carry the mesh's series too. Every
// server owns its metrics and trace store outright — two servers in one
// process (as in tests) never share or shadow each other's figures.
type server struct {
	svc    *bidiag.Service // nil on a compute rank of a mesh
	mesh   *mesh           // nil in single-process mode
	start  time.Time
	traces *traceStore
	// maxBody bounds a request body in bytes: admission queues bound how
	// many jobs wait, this bounds how big one job may be — without it a
	// single oversized POST could exhaust memory before backpressure
	// ever fires.
	maxBody int64
}

// defaultMaxBody is 32 MiB. The binary codec spends 8 bytes on an
// element and about 50 on the job's header, so it admits 2048×2047
// (2048² is one header too many); JSON spends about 20 bytes on a
// full-precision element — some 1.6 million of them, roughly 1300² —
// and as few as 2 on one that prints short.
const defaultMaxBody = 32 << 20

// newMux wires the daemon's routes over svc, which runs on m when m is
// non-nil. A compute rank of a mesh has no service (svc nil) and serves
// liveness and metrics only — its work arrives over the mesh. maxBody ≤ 0
// selects defaultMaxBody.
func newMux(svc *bidiag.Service, m *mesh, start time.Time, maxBody int64) *http.ServeMux {
	if maxBody <= 0 {
		maxBody = defaultMaxBody
	}
	s := &server{svc: svc, mesh: m, start: start, maxBody: maxBody, traces: newTraceStore(traceStoreCap)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if svc == nil {
		return mux
	}
	mux.HandleFunc("POST /v1/singular-values", func(w http.ResponseWriter, r *http.Request) { s.handleJob(w, r, bidiag.JobSingularValues) })
	mux.HandleFunc("POST /v1/svd", func(w http.ResponseWriter, r *http.Request) { s.handleJob(w, r, bidiag.JobSVD) })
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	mux.HandleFunc("GET /debug/plans", s.handlePlans)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// handleMetrics serves the Prometheus text exposition. The registry is
// rebuilt per scrape over ONE Stats snapshot, so every series in a
// response is drawn from the same instant.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := obs.NewRegistry()
	reg.Gauge("bidiagd_uptime_seconds", "Seconds since the daemon started.", func() float64 { return time.Since(s.start).Seconds() })
	registerRuntime(reg)
	if m := s.mesh; m != nil {
		reg.Gauge("bidiagd_cluster_nodes", "Processes in the mesh.", func() float64 { return float64(m.cfg.Grid.Nodes()) })
		registerLinkMetrics(reg, m.cfg.Transport)
	}
	if s.svc != nil {
		s.registerService(reg)
	}
	reg.ServeHTTP(w, r)
}

// registerRuntime adds the Go runtime's memory figures to a scrape, read
// from runtime/metrics: the CPU time its garbage collector has spent and
// the heap bytes the last GC found live.
func registerRuntime(reg *obs.Registry) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	value := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0 // a name this runtime does not know
	}
	gcCPU, live := value(s[0].Value), value(s[1].Value)
	reg.Counter("bidiagd_go_gc_cpu_seconds_total", "CPU time spent by the Go garbage collector (/cpu/classes/gc/total:cpu-seconds).", func() float64 { return gcCPU })
	reg.Gauge("bidiagd_go_heap_live_bytes", "Heap bytes live at the end of the last GC (/gc/heap/live:bytes).", func() float64 { return live })
}

// registerService adds the service's series to a scrape.
func (s *server) registerService(reg *obs.Registry) {
	st := s.svc.Stats()
	gauge := func(name, help string, v float64) { reg.Gauge(name, help, func() float64 { return v }) }
	counter := func(name, help string, v float64) { reg.Counter(name, help, func() float64 { return v }) }

	gauge("bidiagd_workers", "Shared pool size.", float64(st.Workers))
	gauge("bidiagd_inflight_jobs", "Jobs currently executing.", float64(st.InFlight))
	gauge("bidiagd_queue_depth", "Instantaneous admission-queue depth.", float64(st.QueueLen))
	gauge("bidiagd_queue_capacity", "Admission-queue capacity.", float64(st.QueueCap))
	gauge("bidiagd_workspace_bytes", "Total scratch-arena footprint of the pool's workers.", float64(st.WorkspaceBytes))
	gauge("bidiagd_sched_ready_tasks", "Runnable, undispatched tasks across all in-flight jobs.", float64(st.SchedReadyTasks))
	counter("bidiagd_sched_worker_idle_seconds_total", "Cumulative time the pool's workers slept waiting for work.", st.SchedWorkerIdle.Seconds())
	counter("bidiagd_sched_wakeups_total", "Sleeping workers woken by the scheduler.", float64(st.SchedWakeups))
	gauge("bidiagd_cache_entries", "Entries in the result cache.", float64(st.CacheEntries))
	gauge("bidiagd_cache_bytes", "Bytes held by the result cache.", float64(st.CacheBytes))
	gauge("bidiagd_cache_capacity_bytes", "Result cache budget.", float64(st.CacheCap))
	reg.LabeledCounter("bidiagd_jobs_total", "Finished jobs by outcome.", func() []obs.LabeledValue {
		return []obs.LabeledValue{
			{Label: `result="done"`, Value: float64(st.JobsDone)},
			{Label: `result="failed"`, Value: float64(st.JobsFailed)},
			{Label: `result="cancelled"`, Value: float64(st.JobsCancelled)},
			{Label: `result="numerical"`, Value: float64(st.JobsNumerical)},
		}
	})
	counter("bidiagd_cache_hits_total", "Result-cache hits.", float64(st.CacheHits))
	counter("bidiagd_cache_misses_total", "Result-cache misses.", float64(st.CacheMisses))
	traceDropped := float64(st.TraceDropped)
	if s.mesh != nil {
		traceDropped += float64(s.mesh.head.TraceDropped())
		counter("bidiagd_cluster_comm_bytes_total", "Modeled communication volume sent by the head (matches SimulateDistributed).", float64(s.mesh.head.CommBytes()))
	}
	counter("bidiagd_trace_dropped_events_total", "Trace-ring events dropped by traced jobs whose rings overflowed (-trace-event-cap).", traceDropped)
	reg.Histogram("bidiagd_job_latency_seconds", "Job latency, enqueue to completion (cache hits included).", func() obs.HistogramSnapshot {
		return st.Latency
	})
	reg.Histogram("bidiagd_job_queue_wait_seconds", "Job queue wait, enqueue to dispatch.", func() obs.HistogramSnapshot {
		return st.QueueWait
	})
	pc := s.svc.PlanCounters()
	reg.LabeledCounter("bidiagd_plan_decisions_total", "Options.Auto plan decisions by source.", func() []obs.LabeledValue {
		return []obs.LabeledValue{
			{Label: `source="model"`, Value: float64(pc.Model)},
			{Label: `source="explore"`, Value: float64(pc.Explore)},
			{Label: `source="tuned"`, Value: float64(pc.Tuned)},
		}
	})
	counter("bidiagd_plan_promotions_total", "Plan profiles promoted to a measured winner.", float64(pc.Promotions))
	counter("bidiagd_plan_profiles_loaded_total", "Plan profiles restored from disk at startup.", float64(pc.Loaded))
	gauge("bidiagd_plan_profiles", "Shape-bucket plan profiles currently held.", float64(pc.Profiles))
}

// handlePlans serves the autotuner's profile document: every shape
// bucket's candidate set with model costs, measured GFLOP/s and the
// promotion state — the same versioned JSON -profiles persists.
func (s *server) handlePlans(w http.ResponseWriter, r *http.Request) {
	doc, err := s.svc.PlanState()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

// handleVars serves the JSON snapshot previously exported through the
// process-global expvar registry; keeping it per-instance means two
// servers in one process report their own services.
func (s *server) handleVars(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"bidiagd": s.snapshot()})
}

// snapshot assembles the /debug/vars figure: service counters plus the
// derived rates the dashboards want.
func (s *server) snapshot() map[string]any {
	st := s.svc.Stats()
	pc := s.svc.PlanCounters()
	up := time.Since(s.start).Seconds()
	hitRate := 0.0
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		hitRate = float64(st.CacheHits) / float64(lookups)
	}
	jobsPerSec := 0.0
	if up > 0 {
		jobsPerSec = float64(st.JobsDone) / up
	}
	return map[string]any{
		"uptime_seconds":  up,
		"workers":         st.Workers,
		"inflight":        st.InFlight,
		"queue_depth":     st.QueueLen,
		"queue_capacity":  st.QueueCap,
		"jobs_done":       st.JobsDone,
		"jobs_failed":     st.JobsFailed,
		"jobs_cancelled":  st.JobsCancelled,
		"jobs_numerical":  st.JobsNumerical,
		"jobs_per_second": jobsPerSec,
		"latency_p50_ms":  float64(st.P50) / float64(time.Millisecond),
		"latency_p99_ms":  float64(st.P99) / float64(time.Millisecond),
		"cache_hits":      st.CacheHits,
		"cache_misses":    st.CacheMisses,
		"cache_hit_rate":  hitRate,
		"cache_entries":   st.CacheEntries,
		"cache_bytes":     st.CacheBytes,
		"workspace_bytes": st.WorkspaceBytes,
		"sched": map[string]any{
			"ready_tasks":         st.SchedReadyTasks,
			"worker_idle_seconds": st.SchedWorkerIdle.Seconds(),
			"wakeups":             st.SchedWakeups,
		},
		"plan_decisions": map[string]any{
			"model":   pc.Model,
			"explore": pc.Explore,
			"tuned":   pc.Tuned,
		},
		"plan_promotions": pc.Promotions,
		"plan_profiles":   pc.Profiles,
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	}
	if s.svc != nil {
		doc["workers"] = s.svc.Stats().Workers
	}
	if m := s.mesh; m != nil {
		doc["mode"], doc["rank"], doc["nodes"], doc["grid"] = "cluster", m.cfg.Rank, m.cfg.Grid.Nodes(), m.cfg.Grid.String()
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleJob runs one job. ?trace=1 records its execution — every task,
// and on a mesh every rank's tasks and frames: the job bypasses the
// cache, and the response's job_id keys GET /debug/trace/{job_id}.
func (s *server) handleJob(w http.ResponseWriter, r *http.Request, kind bidiag.JobKind) {
	req, status, err := httpapi.ReadRequest(w, r, s.maxBody)
	if err != nil {
		httpError(w, status, err)
		return
	}
	opts := req.Opts
	if s.mesh != nil && req.Options == nil {
		// "The daemon decides" is the planner on one process; a mesh has
		// none, and runs the library defaults.
		opts = nil
	}
	begin := time.Now()
	res, err := s.svc.Do(r.Context(), bidiag.JobRequest{Kind: kind, A: req.A, Opts: opts, Trace: req.Trace})
	if err != nil {
		writeJobError(w, r, err)
		return
	}
	ms := float64(time.Since(begin)) / float64(time.Millisecond)
	jobID := ""
	if res.Trace != nil {
		jobID = s.traces.put(res.Trace)
	}
	if kind == bidiag.JobSVD {
		writeResult(w, req, httpapi.SVDResponse{
			U: httpapi.FromDense(res.SVD.U), S: res.SVD.S, V: httpapi.FromDense(res.SVD.V),
			CacheHit: res.CacheHit, Ms: ms, JobID: jobID,
		})
	} else {
		writeResult(w, req, httpapi.ValuesResponse{S: res.Values, CacheHit: res.CacheHit, Ms: ms, JobID: jobID})
	}
	// The job succeeded, so nothing reads A any more: its memory serves
	// the next request. A failed job may still have a task in flight, so
	// its request is left to the GC.
	req.Release()
}

// writeResult answers a finished job in the codec its request came in.
// An answer that cannot be encoded (NaN in a JSON body) is a 500 with an
// error body, not an empty 200.
func writeResult(w http.ResponseWriter, req *httpapi.Request, v any) {
	err := httpapi.WriteResponse(w, req.Binary, v)
	switch {
	case err == nil:
	case errors.Is(err, httpapi.ErrNothingWritten):
		httpError(w, http.StatusInternalServerError, err)
	default:
		log.Printf("write response: %v", err)
	}
}

// writeJobError maps a failed Service.Do to its HTTP status.
func writeJobError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, bidiag.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, bidiag.ErrServiceClosed):
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, bidiag.ErrNonFinite), errors.Is(err, bidiag.ErrInvalidOptions):
		httpError(w, http.StatusBadRequest, err)
	case errors.Is(err, bidiag.ErrMeshValuesOnly):
		httpError(w, http.StatusNotImplemented, err)
	case r.Context().Err() != nil:
		// The client went away; nothing useful to write.
		log.Printf("job cancelled: %v", err)
	default:
		httpError(w, http.StatusInternalServerError, err)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("write response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, httpapi.ErrorResponse{Error: err.Error()})
}

// traceStoreCap bounds how many finished job traces a server retains for
// /debug/trace: old entries are evicted FIFO, so a long-lived daemon
// holds at most the most recent traced jobs.
const traceStoreCap = 64

// traceStore retains the traces of recently traced jobs, keyed by the
// job ID returned in the POST response.
type traceStore struct {
	mu    sync.Mutex
	next  uint64
	cap   int
	order []string
	byID  map[string]*cluster.MergedTrace
}

func newTraceStore(cap int) *traceStore {
	return &traceStore{cap: cap, byID: make(map[string]*cluster.MergedTrace)}
}

// put stores a trace and returns its job ID, evicting the oldest entry
// once the store is full.
func (ts *traceStore) put(tr *cluster.MergedTrace) string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.next++
	id := fmt.Sprintf("j%06d", ts.next)
	if len(ts.order) == ts.cap {
		delete(ts.byID, ts.order[0])
		ts.order = ts.order[1:]
	}
	ts.order = append(ts.order, id)
	ts.byID[id] = tr
	return id
}

func (ts *traceStore) get(id string) (*cluster.MergedTrace, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tr, ok := ts.byID[id]
	return tr, ok
}

// handleTrace serves a stored trace: Chrome-tracing JSON by default —
// load it in Perfetto (ui.perfetto.dev) or chrome://tracing: one process
// lane per rank, one track per worker, flow arrows send→recv — or, with
// ?format=raw, the events themselves (cmd/trace -cluster reads them).
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.traces.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no trace for job %q (traces are kept for the last %d traced jobs)", id, traceStoreCap))
		return
	}
	render := tr.WriteChrome
	switch format := r.URL.Query().Get("format"); format {
	case "", "chrome":
	case "raw":
		render = tr.WriteJSON
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown trace format %q (want chrome or raw)", format))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := render(w); err != nil {
		log.Printf("write trace %s: %v", id, err)
	}
}
