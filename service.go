package bidiag

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/cluster"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/obs"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/plan"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/serve"
	"github.com/tiled-la/bidiag/internal/trees"
)

// ErrOverloaded is returned by Service.Submit when the admission queue
// is full; callers should shed load or retry with backoff.
var ErrOverloaded = serve.ErrOverloaded

// ErrServiceClosed is returned by Service.Submit after Close.
var ErrServiceClosed = serve.ErrClosed

// ErrMeshValuesOnly is returned by Service.Submit for a JobSVD on a
// service attached to a mesh: the recorded reflector stacks live only on
// their owning ranks, so the vectors cannot be formed on the head
// (bidiagd answers 501).
var ErrMeshValuesOnly = errors.New("bidiag: a mesh serves singular values only; full SVD needs a single-process service")

// ServiceConfig sizes a Service. The zero value (or a nil pointer)
// selects the defaults.
type ServiceConfig struct {
	// Workers is the shared pool size (default GOMAXPROCS): ONE pool
	// executes every in-flight job, workers picking across jobs by fair
	// share. On a mesh it is each rank's worker count (default 1) for
	// jobs that do not set Options.Workers.
	Workers int
	// Mesh attaches the service to rank 0 of a process mesh (bidiagd
	// -node 0): every job then runs across the mesh's grid as the
	// Options.Distributed graph of that grid, through the same admission
	// queue, result cache and finish as a pool job. The plan autotuner
	// does not apply (Options.Auto is an error), and JobSVD fails with
	// ErrMeshValuesOnly. The type is internal: only this module's
	// commands can attach one. The service does not close it.
	Mesh *cluster.Head
	// QueueDepth bounds the admission queue, beyond which Submit fails
	// fast with ErrOverloaded (default 256).
	QueueDepth int
	// MaxInFlight caps concurrently executing jobs (default
	// max(2, Workers)); queued jobs beyond it wait their turn.
	MaxInFlight int
	// CacheBytes budgets the content-addressed result cache: 0 selects
	// 64 MiB, negative disables caching.
	CacheBytes int64
	// PlanProfiles persists the autotuner's plan profiles at this path
	// (versioned JSON): NewService loads it when present so a restarted
	// service keeps its promoted plans, and promotions and Close save
	// it. Empty keeps the profiles in memory only.
	PlanProfiles string
	// PlanMinSamples is the per-candidate sample count the autotuner
	// requires before promoting a measured winner (0 selects the
	// default, 3; negative disables promotion so every Options.Auto job
	// keeps exploring).
	PlanMinSamples int
	// TraceEventCap bounds each per-worker trace ring of a traced job
	// (JobRequest.Trace). 0 sizes the rings at the job's task count so
	// timelines are always complete; a smaller cap bounds trace memory
	// instead, and events beyond it are dropped and counted in
	// ServiceStats.TraceDropped.
	TraceEventCap int
}

// ServiceStats is a point-in-time snapshot of a Service, mirroring what
// the bidiagd daemon exports at /metrics (Prometheus text) and
// /debug/vars (JSON).
type ServiceStats struct {
	Workers, InFlight                   int
	QueueLen, QueueCap                  int
	JobsDone, JobsFailed, JobsCancelled uint64
	CacheHits, CacheMisses              uint64
	CacheEntries                        int
	CacheBytes, CacheCap                int64
	// WorkspaceBytes is the total scratch-arena footprint of the shared
	// pool's workers.
	WorkspaceBytes int64
	// SchedReadyTasks is the number of runnable, undispatched tasks across
	// all in-flight jobs; SchedWorkerIdle the cumulative time the pool's
	// workers have slept waiting for work; SchedWakeups the sleeping
	// workers woken so far. All three come from the worker loop itself.
	SchedReadyTasks int
	SchedWorkerIdle time.Duration
	SchedWakeups    int64
	// TraceDropped counts trace-ring events lost across every traced job
	// whose rings overflowed (ServiceConfig.TraceEventCap below the
	// job's task count).
	TraceDropped uint64
	// Latency and QueueWait are bucketed distributions (in seconds) of
	// job latency (enqueue to completion, cache hits included) and queue
	// wait (enqueue to dispatch) over the service's lifetime.
	Latency, QueueWait HistogramStats
	// P50 and P99 are job latencies estimated from the Latency buckets.
	P50, P99 time.Duration
}

// HistogramStats is a snapshot of a fixed-bucket histogram. Bucket i
// counts observations in (Bounds[i-1], Bounds[i]]; Counts has one more
// entry than Bounds for the overflow bucket. The layout maps directly
// onto a Prometheus histogram's cumulative _bucket/_sum/_count series.
type HistogramStats struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the buckets by
// linear interpolation. It returns 0 for an empty histogram.
func (h HistogramStats) Quantile(q float64) float64 {
	return obs.HistogramSnapshot{Bounds: h.Bounds, Counts: h.Counts, Sum: h.Sum, Count: h.Count}.Quantile(q)
}

func toHistogramStats(s obs.HistogramSnapshot) HistogramStats {
	return HistogramStats{Bounds: s.Bounds, Counts: s.Counts, Sum: s.Sum, Count: s.Count}
}

// JobKind selects what a service job computes.
type JobKind int

const (
	// JobSingularValues computes the singular values (SingularValues).
	JobSingularValues JobKind = iota
	// JobSVD computes the thin SVD with singular vectors (SVD): the
	// recorded GE2BND graph runs on the shared pool like a values job,
	// the logged BND2BD chase, the bidiagonal iteration with vectors and
	// the back-transform follow when it has drained.
	JobSVD
)

// JobRequest describes one matrix job submitted to a Service.
type JobRequest struct {
	Kind JobKind
	// A is the input matrix. It must not be modified until the job
	// finishes (the tiling snapshot is taken when the job is dispatched,
	// not at Submit).
	A *Dense
	// Opts configures the reduction exactly as for the one-shot entry
	// points, with two differences: Options.Distributed must be nil
	// (a job runs where the service does: its pool, or its mesh), and
	// Options.Workers does NOT size a pool — the service's shared
	// workers do — but still parameterizes the AUTO tree and, for
	// JobSVD, the stages after the GE2BND graph (the panel tasks that
	// form Q₂ and P₂ and fold the bidiagonal rotations in, and the
	// reflector application), so it remains part of the result's cache
	// identity. It may not exceed the larger of the pool size and
	// runtime.NumCPU() (ErrInvalidOptions otherwise). All other fields
	// (NB, Tree, Algorithm, Gamma, Gemm, BND2BD, BND2BDWindow) are
	// honored per job. Options.Auto defers the
	// unset knobs to the service's plan autotuner, which explores the
	// model's best candidates under live traffic and promotes the
	// measured winner (see Options.Auto and ServiceConfig.PlanProfiles).
	Opts *Options
	// Trace records a per-task execution timeline for this job,
	// returned in JobResult.Timeline. A traced job always executes — it
	// bypasses the result cache in both directions and pays a small
	// bookkeeping cost per task — so the timeline reflects one complete
	// real execution of the job's graph.
	Trace bool
}

// JobResult is a finished service job. Results may be served from the
// result cache and shared between callers: treat them as immutable.
type JobResult struct {
	// Values holds the singular values in descending order (both kinds).
	Values []float64
	// SVD carries the full decomposition for JobSVD (nil otherwise).
	SVD *SVDResult
	// CacheHit reports that the result came from the cache.
	CacheHit bool
	// Timeline is the per-task execution trace of this job, sorted by
	// start time, when JobRequest.Trace was set (nil otherwise).
	Timeline []TaskSpan
	// Trace is the same traced execution as a document — on a mesh, every
	// rank's tasks and frames on one clock; a pool job is its one-rank,
	// no-frame case. WriteChrome renders it for Perfetto, WriteJSON writes
	// the raw events. Nil when untraced. (The type is internal.)
	Trace *cluster.MergedTrace
}

// TaskSpan is one executed task in a traced job's timeline. Start and
// End are offsets from a common per-job origin, so spans are directly
// comparable within one Timeline.
type TaskSpan struct {
	// Kernel is the tile-kernel name (GEQRT, TSMQR, BRDSEG, …).
	Kernel string
	// Worker is the pool worker that executed the task.
	Worker int
	// I, J, K are the task's tile coordinates (panel, row, column —
	// meaning depends on the kernel).
	I, J, K int
	// Flops is the task's modeled flop count.
	Flops      float64
	Start, End time.Duration
}

// Job is an in-flight service job.
type Job struct {
	inner *serve.Job
	// workers is the pool size a traced pool job's lanes are laid out
	// over; mesh the executor of a mesh job, which holds its trace.
	workers int
	mesh    *cluster.Job
}

// Wait blocks until the job finishes.
func (j *Job) Wait() (*JobResult, error) {
	res, err := j.inner.Wait()
	if err != nil {
		return nil, err
	}
	jr := &JobResult{CacheHit: res.CacheHit}
	switch v := res.Value.(type) {
	case []float64:
		jr.Values = v
	case *SVDResult:
		jr.Values, jr.SVD = v.S, v
	default:
		return nil, fmt.Errorf("bidiag: unexpected service result %T", res.Value)
	}
	switch {
	case j.mesh != nil:
		jr.Trace = j.mesh.Trace
	case len(res.Trace) > 0:
		jr.Trace = &cluster.MergedTrace{Grid: "1x1", Ranks: 1, WPN: j.workers, Events: res.Trace, Dropped: []int64{res.TraceDropped}}
	}
	if jr.Trace != nil {
		jr.Timeline = toTimeline(jr.Trace.Events)
	}
	return jr, nil
}

// Done returns a channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.inner.Done() }

// Service executes many concurrent reduction jobs over one shared
// elastic worker pool, with bounded admission, per-job cancellation,
// panic isolation and a content-addressed result cache: every job is one
// task graph among many on the pool. See the README "Serving" section for
// the architecture; internal/serve documents the semantics in detail.
//
// A Service and every method on it are safe for concurrent use. The
// one-shot entry points (SingularValues, SVD, GE2BND, …) remain safe to
// call concurrently with each other and with a Service — they use
// private pools — but a Service amortizes pool and workspace setup
// across calls and keeps the machine saturated under mixed load.
type Service struct {
	inner *serve.Service
	// cacheOff skips cache-key digestion entirely when the cache budget
	// is negative — no point hashing the matrix for a disabled cache.
	cacheOff bool
	// tuner resolves Options.Auto jobs: model-seeded plan selection,
	// refined by the measured GFLOP/s of executed jobs.
	tuner *plan.Tuner
	// mesh, when non-nil, runs every job across its grid with meshWPN
	// workers a rank unless the job says otherwise.
	mesh    *cluster.Head
	meshWPN int
}

// NewService starts a Service with the given configuration (nil selects
// every default). Close releases it.
func NewService(cfg *ServiceConfig) *Service {
	var c ServiceConfig
	if cfg != nil {
		c = *cfg
	}
	return &Service{
		inner: serve.New(serve.Config{
			Workers:       c.Workers,
			QueueDepth:    c.QueueDepth,
			MaxInFlight:   c.MaxInFlight,
			CacheBytes:    c.CacheBytes,
			TraceEventCap: c.TraceEventCap,
		}),
		cacheOff: c.CacheBytes < 0,
		tuner:    plan.NewTuner(plan.TunerConfig{Path: c.PlanProfiles, MinSamples: c.PlanMinSamples}),
		mesh:     c.Mesh,
		meshWPN:  max(c.Workers, 1),
	}
}

// Submit admits a job and returns without waiting. It fails fast with
// ErrOverloaded when the service is saturated and ErrServiceClosed after
// Close. Cancelling ctx fails the job promptly with ctx.Err(), whether
// it is still queued or mid-graph.
func (s *Service) Submit(ctx context.Context, req JobRequest) (*Job, error) {
	r, err := s.request(req)
	if err != nil {
		return nil, err
	}
	j, err := s.inner.Submit(ctx, r)
	if err != nil {
		return nil, err
	}
	mesh, _ := r.Executor.(*cluster.Job)
	return &Job{inner: j, workers: s.inner.Runtime().Workers(), mesh: mesh}, nil
}

// Do is Submit followed by Wait.
func (s *Service) Do(ctx context.Context, req JobRequest) (*JobResult, error) {
	j, err := s.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return j.Wait()
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() ServiceStats {
	st := s.inner.Stats()
	return ServiceStats{
		Workers: st.Workers, InFlight: st.InFlight,
		QueueLen: st.QueueLen, QueueCap: st.QueueCap,
		JobsDone: st.JobsDone, JobsFailed: st.JobsFailed, JobsCancelled: st.JobsCancelled,
		CacheHits: st.CacheHits, CacheMisses: st.CacheMisses,
		CacheEntries: st.CacheEntries, CacheBytes: st.CacheBytes, CacheCap: st.CacheCap,
		WorkspaceBytes:  st.WorkspaceBytes,
		SchedReadyTasks: st.Sched.Ready,
		SchedWorkerIdle: st.Sched.Idle,
		SchedWakeups:    st.Sched.Wakeups,
		TraceDropped:    st.TraceDropped,
		Latency:         toHistogramStats(st.Latency),
		QueueWait:       toHistogramStats(st.QueueWait),
		P50:             st.P50, P99: st.P99,
	}
}

// Close stops admission, fails queued jobs, waits for in-flight jobs,
// persists the plan profiles (when ServiceConfig.PlanProfiles is set)
// and winds the shared pool down. Safe to call more than once.
func (s *Service) Close() {
	s.inner.Close()
	_ = s.tuner.Close()
}

// PlanCounters are the lifetime decision counts of the service's plan
// autotuner (see Options.Auto).
type PlanCounters struct {
	// Model, Explore and Tuned count Options.Auto decisions by source:
	// the model's top pick while exploring, a non-top exploration
	// candidate, and a promoted measured winner.
	Model, Explore, Tuned uint64
	// Promotions counts profiles that graduated to a measured winner;
	// Loaded counts profiles restored from PlanProfiles at startup.
	Promotions, Loaded uint64
	// Profiles is the current number of shape-bucket profiles.
	Profiles int
}

// PlanCounters returns the autotuner's decision counts.
func (s *Service) PlanCounters() PlanCounters {
	c := s.tuner.Counters()
	return PlanCounters{
		Model: c.Model, Explore: c.Explore, Tuned: c.Tuned,
		Promotions: c.Promotions, Loaded: c.Loaded,
		Profiles: len(s.tuner.State().Profiles),
	}
}

// PlanState returns the autotuner's full profile state as one versioned
// JSON document — the same document ServiceConfig.PlanProfiles persists
// and bidiagd serves at /debug/plans.
func (s *Service) PlanState() ([]byte, error) {
	return json.MarshalIndent(s.tuner.State(), "", "  ")
}

// request validates a JobRequest and lowers it to the generic serving
// layer: a Build closure returning the job's task graph and a finish
// closure extracting the result, and the content-addressed cache key.
func (s *Service) request(req JobRequest) (serve.Request, error) {
	if req.A == nil {
		return serve.Request{}, errors.New("bidiag: service job without a matrix")
	}
	var raw Options
	if req.Opts != nil {
		raw = *req.Opts
	}
	if raw.Distributed != nil {
		return serve.Request{}, errors.New("bidiag: a service job runs where the service does, its pool or its mesh; Options.Distributed must be nil")
	}
	// Workers sizes the SVD back half's own pools and the AUTO tree: a
	// client's value must not start more goroutines than the machine has
	// use for.
	if limit := max(s.inner.Runtime().Workers(), runtime.NumCPU()); raw.Workers > limit {
		return serve.Request{}, invalidOptions{fmt.Errorf("bidiag: Options.Workers = %d exceeds %d, the larger of the service's pool size and the CPU count", raw.Workers, limit)}
	}
	if s.mesh != nil {
		// A mesh job IS the Options.Distributed run of the mesh's grid:
		// pinned here, so Validate judges the options as that run's.
		if raw.Workers <= 0 {
			raw.Workers = s.meshWPN
		}
		grid := s.mesh.Grid()
		raw.Distributed = &DistOptions{GridRows: grid.R, GridCols: grid.C, WorkersPerNode: raw.Workers}
	}
	// Validate options and input eagerly so Submit fails fast; Build
	// resolves the options again (cheap, and keeps the closure
	// self-contained) but does not rescan the matrix.
	opts, err := raw.Validate()
	if err != nil {
		return serve.Request{}, err
	}
	if err := req.A.CheckFinite(); err != nil {
		return serve.Request{}, err
	}
	if req.A.Rows() == 0 || req.A.Cols() == 0 {
		return serve.Request{}, errors.New("bidiag: empty matrix")
	}

	// Options.Auto jobs consult the service's autotuner at admission:
	// promoted profiles return their measured winner, exploring profiles
	// spread traffic across the model's candidate set, and executed jobs
	// feed their measured whole-graph GFLOP/s back via Observe.
	var observe func(obs.MeterSnapshot)
	auto := opts.Auto
	run := opts
	if auto {
		preq, err := s.planRequest(req, raw, opts)
		if err != nil {
			return serve.Request{}, err
		}
		dec, err := s.tuner.Decide(preq)
		if err != nil {
			return serve.Request{}, err
		}
		run = applyPlanConfig(opts, dec.Config)
		cfg := dec.Config
		observe = func(ms obs.MeterSnapshot) {
			s.tuner.Record(preq, cfg, ms.GFlops())
		}
	}
	jobOpts := req.Opts
	if auto {
		jobOpts = &run // Build must run the tuner's plan, not re-plan
	}

	var build jobBuild
	var ex pipeline.Executor
	switch {
	case s.mesh != nil:
		if build, ex, err = s.meshJob(req, &raw); err != nil {
			return serve.Request{}, err
		}
	case req.Kind == JobSingularValues:
		build = s.buildSingularValuesJob(req.A, jobOpts)
	case req.Kind == JobSVD:
		build = buildSVDJob(req.A, jobOpts)
	default:
		return serve.Request{}, fmt.Errorf("bidiag: unknown job kind %d", int(req.Kind))
	}
	// Auto jobs are cached under their PRE-resolution identity (the auto
	// flag plus any pins): an exploring profile hands different
	// configurations to identical requests, and keying on the resolved
	// plan would turn every such repeat into a miss. The first executed
	// plan's result serves all identical auto requests — results differ
	// only in rounding across plans, and the cache's contract is "same
	// request, same bytes".
	key := ""
	if !s.cacheOff {
		key = cacheKey(req.Kind, req.A, opts)
	}
	// A traced values job's chase records on the job's tracer after its
	// GE2BND graph: the rings hold both.
	chaseTasks := 0
	if req.Trace && req.Kind == JobSingularValues && run.BND2BD != BND2BDSequential {
		chaseTasks = band.Tasks(min(req.A.Rows(), req.A.Cols()), run.NB, run.BND2BDWindow)
	}
	return serve.Request{
		Build:       build,
		FinishTasks: chaseTasks,
		Key:         key,
		Bytes:       resultBytes,
		Trace:       req.Trace,
		Observe:     observe,
		Executor:    ex,
	}, nil
}

// planRequest lowers an Options.Auto job to its planning request: a
// values job prices both stages, an SVD job the recorded stage-1 graph
// only.
func (s *Service) planRequest(req JobRequest, raw, opts Options) (plan.Request, error) {
	kind := plan.KindValues
	switch req.Kind {
	case JobSingularValues:
	case JobSVD:
		kind = plan.KindSVD
	default:
		return plan.Request{}, fmt.Errorf("bidiag: unknown job kind %d", int(req.Kind))
	}
	return planRequest(req.A.Rows(), req.A.Cols(), raw, opts, kind), nil
}

// jobBuild is a serve.Request's Build: the job's first graph and the
// finish that turns its execution into the result.
type jobBuild = func() (*sched.Graph, func(context.Context) (any, error), error)

// meshJob lowers a job to the mesh: the GE2BND graph of the mesh's grid,
// run by a per-job mesh executor and finished like any values job — the
// head chases the gathered band on the service's pool. The input is
// resolved here, not at dispatch, because the executor announces the
// very matrix (transposed when wide) and grid job the graph is built
// from.
func (s *Service) meshJob(req JobRequest, raw *Options) (jobBuild, pipeline.Executor, error) {
	if req.Kind != JobSingularValues {
		return nil, nil, ErrMeshValuesOnly
	}
	opts, src, treeKind, _, err := resolve(req.A, raw)
	if err != nil {
		return nil, nil, err
	}
	gj, err := gridJob(opts, src.Rows, src.Cols)
	if err != nil {
		return nil, nil, err
	}
	build := func() (*sched.Graph, func(context.Context) (any, error), error) {
		g, finish := s.valuesGraph(src, opts, treeKind, &gj)
		return g, finish, nil
	}
	return build, s.mesh.Job(src, gj, req.Trace), nil
}

// buildSingularValuesJob builds the full singular-value pipeline for one
// pool job.
func (s *Service) buildSingularValuesJob(a *Dense, o *Options) jobBuild {
	return func() (*sched.Graph, func(context.Context) (any, error), error) {
		opts, src, treeKind, _, err := resolve(a, o)
		if err != nil {
			return nil, nil, err
		}
		g, finish := s.valuesGraph(src, opts, treeKind, nil)
		return g, finish, nil
	}
}

// valuesGraph builds a values job: the GE2BND graph it returns runs on the
// job's executor (the shared pool, or the mesh for a grid job), then
// finish chases the band on the service's shared pool — one more graph
// under the job's ctx, tracer and meter.
func (s *Service) valuesGraph(src *nla.Matrix, opts Options, treeKind trees.Kind, gj *pipeline.GridJob) (*sched.Graph, func(context.Context) (any, error)) {
	plan := pipeline.Build(buildSpec(src, opts, treeKind, gj, nil))
	chase := pipeline.Shared{Runtime: s.inner.Runtime()}
	return plan.Graph, func(ctx context.Context) (any, error) {
		v, err := finishValues(ctx, plan, opts, chase)
		if err != nil {
			return nil, err
		}
		return v, nil
	}
}

// buildSVDJob builds the vector-bearing decomposition: the recorded
// GE2BND graph, then — in finish — everything SVD does after it (the
// logged chase, the bidiagonal iteration with vectors, the recorded
// reflectors), through the same finishSVD. finish runs beside the
// service's pool, not on it: a small job (core.SVDWorkers) does it on the
// goroutine it is called from instead of starting workers of its own.
func buildSVDJob(a *Dense, o *Options) jobBuild {
	return func() (*sched.Graph, func(context.Context) (any, error), error) {
		opts, src, treeKind, transposed, err := resolve(a, o)
		if err != nil {
			return nil, nil, err
		}
		rec := &core.Recorder{}
		plan := pipeline.Build(buildSpec(src, opts, treeKind, nil, rec))
		workers := core.SVDWorkers(src.Rows, src.Cols, opts.Workers)
		finish := func(context.Context) (any, error) {
			res, err := finishSVD(plan, rec, workers, transposed)
			if err != nil {
				return nil, err
			}
			return res, nil
		}
		return plan.Graph, finish, nil
	}
}

// CacheKey digests a job — kind, matrix content, and the
// result-affecting options — into the sha256 hex identity the service's
// result cache uses. The options are digested exactly as given, with no
// environment-dependent defaulting (in particular no GOMAXPROCS worker
// default), so two processes on different machines key the same request
// identically — the property the shard router's consistent hashing
// relies on for cache affinity.
func CacheKey(kind JobKind, a *Dense, opts *Options) string {
	var o Options
	if opts != nil {
		o = *opts
	}
	return cacheKey(kind, a, o)
}

// cacheKey digests the matrix content and every result-affecting option
// into the job's content-addressed identity. Workers is present because
// it parameterizes the AUTO tree.
func cacheKey(kind JobKind, a *Dense, opts Options) string {
	h := sha256.New()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w(uint64(kind))
	w(uint64(a.Rows()))
	w(uint64(a.Cols()))
	// One bulk conversion and one hasher write per contiguous column.
	m := a.inner
	col := make([]byte, 8*m.Rows)
	for j := 0; j < m.Cols; j++ {
		nla.PutFloat64sLE(col, m.Data[j*m.LD:j*m.LD+m.Rows])
		h.Write(col)
	}
	w(uint64(opts.NB))
	w(uint64(opts.Tree))
	w(uint64(opts.Algorithm))
	w(uint64(opts.Workers))
	w(uint64(opts.Gamma))
	w(uint64(opts.Gemm.MC))
	w(uint64(opts.Gemm.KC))
	w(uint64(opts.Gemm.NC))
	w(uint64(opts.BND2BD))
	w(uint64(opts.BND2BDWindow))
	if opts.Auto {
		// Keep auto requests distinct from explicit options that happen to
		// carry the same knob values.
		w(1)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// resultBytes accounts a finished result for the cache budget.
func resultBytes(v any) int64 {
	switch r := v.(type) {
	case []float64:
		return int64(8 * len(r))
	case *SVDResult:
		return int64(8 * (len(r.S) + r.U.Rows()*r.U.Cols() + r.V.Rows()*r.V.Cols()))
	}
	return 0
}

// toTimeline lifts the task events of a trace into the public span form
// (a mesh trace carries frame events too).
func toTimeline(events []obs.Event) []TaskSpan {
	spans := make([]TaskSpan, 0, len(events))
	for _, e := range events {
		if e.Op != obs.OpTask {
			continue
		}
		spans = append(spans, TaskSpan{
			Kernel: e.Kind.String(),
			Worker: int(e.Worker),
			I:      int(e.I), J: int(e.J), K: int(e.K),
			Flops: e.Flops,
			Start: e.Start, End: e.End,
		})
	}
	return spans
}
