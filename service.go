package bidiag

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/cluster"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/obs"
	"github.com/tiled-la/bidiag/internal/plan"
	"github.com/tiled-la/bidiag/internal/sched"
)

// ErrOverloaded is returned by Service.Submit when the admission queue
// is full; callers should shed load or retry with backoff.
var ErrOverloaded = errors.New("bidiag: admission queue full")

// ErrServiceClosed is returned by Service.Submit after Close, and by
// Job.Wait for jobs the shutdown drained.
var ErrServiceClosed = errors.New("bidiag: service closed")

// ErrMeshValuesOnly is returned by Service.Submit for a JobSVD on a
// service attached to a mesh: the recorded reflector stacks live only on
// their owning ranks, so the vectors cannot be formed on the head
// (bidiagd answers 501).
var ErrMeshValuesOnly = errors.New("bidiag: a mesh serves singular values only; full SVD needs a single-process service")

// ErrNumerical is wrapped by the error of a service job whose result
// failed the check made before it is published: singular values that are
// not finite, negative or out of descending order, or non-finite
// singular vectors. Such a result is neither cached nor answered, and
// the job's working set is not recycled (bidiagd answers 500).
var ErrNumerical = errors.New("bidiag: result failed its numerical check")

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
	// JobsNumerical counts the jobs whose result failed the numerical
	// check (ErrNumerical); JobsFailed does not include them.
	JobsNumerical          uint64
	CacheHits, CacheMisses uint64
	CacheEntries           int
	CacheBytes, CacheCap   int64
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
// onto a Prometheus histogram's cumulative _bucket/_sum/_count series,
// and Quantile estimates a quantile from the buckets.
type HistogramStats = obs.HistogramSnapshot

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
	// workers run every graph of a job, a JobSVD's back half included —
	// but still parameterizes the AUTO tree, so it remains part of the
	// result's cache identity. It may not exceed the larger of the pool
	// size and runtime.NumCPU() (ErrInvalidOptions otherwise). All other fields
	// (NB, Tree, Algorithm, Gamma, Gemm, BND2BDWindow) are honored per
	// job. Options.Auto defers the unset plan knobs to the service's plan
	// autotuner, which explores the model's best candidates under live
	// traffic and promotes the measured winner (see Options.Auto and
	// ServiceConfig.PlanProfiles). An Auto job that also sets Gamma, Gemm
	// or BND2BDWindow runs the autotuner's plan for its shape but is not
	// measured into it: those knobs change the rate a plan runs at, and
	// the profiles are kept for jobs that leave them at their defaults.
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

// Service executes many concurrent reduction jobs over one shared
// elastic worker pool, with bounded admission, per-job cancellation,
// panic isolation and a content-addressed result cache:
//
//	Submit ──► admission queue ──► MaxInFlight ──► sched.Runtime (shared pool)
//	   │            (bounded)       dispatchers            │
//	   │                           one job each           └─ tasks of ALL jobs
//	   │                           (a mesh job's first       interleave on the
//	   │                            graph: on the mesh)      same workers
//	   └─ cache hit: immediate result
//
// Every job — values or SVD, on the pool or on a mesh — is built the way
// a one-shot call builds its work: its GE2BND graph, then a finish that
// runs its later graphs (the chase, or the SVD's back half) on the shared
// runtime under the job's ctx, tracer and meter. Each graph is one runtime
// job with its own ready heap, workers pick across jobs by fair share, and
// per-worker scratch arenas grow to the largest requirement among the jobs
// they serve: many small graphs keep the machine busy where one graph's
// critical path cannot, the multi-DAG regime of arXiv:1303.3182.
//
// A full queue (ServiceConfig.QueueDepth) fails Submit at once with
// ErrOverloaded (bidiagd answers 429); at most MaxInFlight jobs run, and
// queued jobs wait their turn in FIFO order. Cancelling a job's ctx fails
// it promptly with context.Cause(ctx), whether it is queued, mid-graph
// (the runtime stops dispatching its tasks; in-flight tiles finish) or in
// its finish. A kernel panic fails only the job owning the tile, with an
// error naming the kernel kind; the pool and every other job keep running.
// A job's working memory — its tiles and T factors — is recycled for the
// jobs after it once it has succeeded; a failed or cancelled job's is left
// to the garbage collector, so no task still draining can write into a
// later job's tiles.
// Results are cached under a digest of the matrix bytes and every
// result-affecting option (CacheKey), so a hit is exact, never
// approximate, and shared between callers.
//
// A Service and every method on it are safe for concurrent use. The
// one-shot entry points (SingularValues, SVD, GE2BND, …) remain safe to
// call concurrently with each other and with a Service — they use
// private pools — but a Service amortizes pool and workspace setup
// across calls and keeps the machine saturated under mixed load.
type Service struct {
	cfg   ServiceConfig // defaults applied
	rt    *sched.Runtime
	cache *cache
	met   metrics
	// queue is the admission queue, drained by MaxInFlight dispatchers.
	queue     chan *Job
	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
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
	s := &Service{
		tuner:   plan.NewTuner(plan.TunerConfig{Path: c.PlanProfiles, MinSamples: c.PlanMinSamples}),
		mesh:    c.Mesh,
		meshWPN: max(c.Workers, 1),
		closed:  make(chan struct{}),
		met:     metrics{lat: obs.NewHistogram(nil), qwait: obs.NewHistogram(nil)},
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = max(2, c.Workers)
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	s.cfg = c
	s.rt = sched.NewRuntime(c.Workers)
	s.cache = newCache(c.CacheBytes)
	s.queue = make(chan *Job, c.QueueDepth)
	for range c.MaxInFlight {
		s.wg.Add(1)
		go s.dispatch()
	}
	return s
}

// Submit admits a job and returns without waiting. It fails fast with
// ErrOverloaded when the service is saturated and ErrServiceClosed after
// Close. Cancelling ctx fails the job promptly with context.Cause(ctx),
// whether it is still queued or mid-graph.
func (s *Service) Submit(ctx context.Context, req JobRequest) (*Job, error) {
	r, err := s.request(req)
	if err != nil {
		return nil, err
	}
	return s.submit(ctx, r)
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
	entries, bytes, capacity := s.cache.stats()
	rs := s.rt.Stats()
	s.met.mu.Lock()
	st := ServiceStats{
		Workers: s.rt.Workers(), InFlight: s.met.inflight,
		QueueLen: len(s.queue), QueueCap: s.cfg.QueueDepth,
		JobsDone: s.met.jobsDone, JobsFailed: s.met.jobsFailed, JobsCancelled: s.met.jobsCancelled,
		JobsNumerical: s.met.jobsNumerical,
		CacheHits:     s.met.cacheHits, CacheMisses: s.met.cacheMisses,
		CacheEntries: entries, CacheBytes: bytes, CacheCap: capacity,
		WorkspaceBytes:  s.rt.WorkspaceBytes(),
		SchedReadyTasks: rs.Ready,
		SchedWorkerIdle: rs.Idle,
		SchedWakeups:    rs.Wakeups,
		TraceDropped:    s.met.traceDropped,
	}
	s.met.mu.Unlock()
	lat := s.met.lat.Snapshot()
	st.Latency, st.QueueWait = lat, s.met.qwait.Snapshot()
	st.P50 = time.Duration(lat.Quantile(0.50) * float64(time.Second))
	st.P99 = time.Duration(lat.Quantile(0.99) * float64(time.Second))
	return st
}

// Close stops admission, fails queued jobs with ErrServiceClosed, waits
// for in-flight jobs, persists the plan profiles (when
// ServiceConfig.PlanProfiles is set) and winds the shared pool down. Safe
// to call more than once.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.wg.Wait()
		s.drain()
		s.rt.Close()
	})
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

// request validates a JobRequest, resolves its options and input, and
// lowers it to what the dispatcher runs: the job newJob builds, its cache
// key, and for an Options.Auto job the tuner's plan and measurement.
func (s *Service) request(req JobRequest) (request, error) {
	if req.A == nil {
		return request{}, errors.New("bidiag: service job without a matrix")
	}
	var raw Options
	if req.Opts != nil {
		raw = *req.Opts
	}
	if raw.Distributed != nil {
		return request{}, errors.New("bidiag: a service job runs where the service does, its pool or its mesh; Options.Distributed must be nil")
	}
	// Workers sizes the AUTO tree: a client's value must not ask for
	// more parallelism than the service or the machine has.
	if limit := max(s.rt.Workers(), runtime.NumCPU()); raw.Workers > limit {
		return request{}, invalidOptions{fmt.Errorf("bidiag: Options.Workers = %d exceeds %d, the larger of the service's pool size and the CPU count", raw.Workers, limit)}
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
	// Validate options and input eagerly so Submit fails fast.
	opts, err := raw.Validate()
	if err != nil {
		return request{}, err
	}
	// Auto jobs are cached under their PRE-resolution identity (the auto
	// flag plus any pins): an exploring profile hands different
	// configurations to identical requests, and keying on the resolved
	// plan would turn every such repeat into a miss. The first executed
	// plan's result serves all identical auto requests — results differ
	// only in rounding across plans, and the cache's contract is "same
	// request, same bytes". The digest checks the input in the same walk;
	// a disabled cache skips it and checks alone.
	var key string
	if s.cache.cap > 0 {
		key, err = cacheKey(req.Kind, req.A, opts)
	} else {
		err = req.A.CheckFinite()
	}
	if err != nil {
		return request{}, err
	}
	if req.A.Rows() == 0 || req.A.Cols() == 0 {
		return request{}, errors.New("bidiag: empty matrix")
	}
	switch {
	case req.Kind != JobSingularValues && req.Kind != JobSVD:
		return request{}, fmt.Errorf("bidiag: unknown job kind %d", int(req.Kind))
	case req.Kind == JobSVD && s.mesh != nil:
		return request{}, ErrMeshValuesOnly
	}

	// Options.Auto jobs consult the service's autotuner at admission:
	// promoted profiles return their measured winner, exploring profiles
	// spread traffic across the model's candidate set, and executed jobs
	// feed their measured whole-graph GFLOP/s back via observe — only
	// those that leave the knobs outside the plan at their defaults, so a
	// profile compares its candidates like for like.
	var observe func(obs.MeterSnapshot)
	run := opts
	if opts.Auto {
		kind := plan.KindValues
		if req.Kind == JobSVD {
			kind = plan.KindSVD
		}
		preq := planRequest(req.A.Rows(), req.A.Cols(), raw, opts, kind)
		dec, err := s.tuner.Decide(preq)
		if err != nil {
			return request{}, err
		}
		run = applyPlanConfig(opts, dec.Config) // the job runs the tuner's plan, not a re-plan
		if opts.Gamma == defaultGamma && opts.Gemm == (GemmBlock{}) && opts.BND2BDWindow == 0 {
			cfg := dec.Config
			observe = func(ms obs.MeterSnapshot) {
				s.tuner.Record(preq, cfg, ms.GFlops())
			}
		}
	}
	r := request{
		// The input is resolved (a wide one transposed) and tiled when the
		// job leaves the queue, so a cache hit or a queued job holds no copy.
		build: func() (job, error) {
			run, src, treeKind, transposed, err := resolve(req.A, &run)
			if err != nil {
				return job{}, err
			}
			j, err := newJob(req.Kind, src, run, treeKind, transposed)
			if err == nil && s.mesh != nil {
				// The mesh announces this very matrix and grid job to its
				// ranks, and the head chases the gathered band on the pool.
				j.stage1 = s.mesh.Job(src, j.grid, req.Trace)
			}
			return j, err
		},
		key:     key,
		trace:   req.Trace,
		observe: observe,
	}
	if req.Trace {
		m, n := req.A.Rows(), req.A.Cols()
		if req.Kind == JobSVD {
			r.later = core.BackHalfTasks(m, n, run.NB)
		} else {
			r.later = band.Tasks(min(m, n), run.NB, run.BND2BDWindow)
		}
	}
	return r, nil
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
	key, _ := cacheKey(kind, a, o)
	return key
}

// keyColumns recycles cacheKey's column buffers.
var keyColumns = nla.FreeList[*[]byte]{New: func() *[]byte { return new([]byte) }}

// cacheKey digests the matrix content and every result-affecting option
// into the job's content-addressed identity. Workers is present because
// it parameterizes the AUTO tree. It checks each column before hashing it
// and returns CheckFinite's error for the first non-finite entry, with
// the digest of the whole input all the same.
func cacheKey(kind JobKind, a *Dense, opts Options) (string, error) {
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
	col := keyColumns.Get()
	defer keyColumns.Put(col)
	*col = slices.Grow((*col)[:0], 8*m.Rows)[:8*m.Rows]
	var bad error
	for j := 0; j < m.Cols; j++ {
		c := m.Data[j*m.LD : j*m.LD+m.Rows]
		if bad == nil {
			bad = checkColumn(c, j)
		}
		nla.PutFloat64sLE(*col, c)
		h.Write(*col)
	}
	w(uint64(opts.NB))
	w(uint64(opts.Tree))
	w(uint64(opts.Algorithm))
	w(uint64(opts.Workers))
	w(uint64(opts.Gamma))
	w(uint64(opts.Gemm.MC))
	w(uint64(opts.Gemm.KC))
	w(uint64(opts.Gemm.NC))
	w(0) // a retired chase-mode option's word, kept so every build's digests agree
	w(uint64(opts.BND2BDWindow))
	if opts.Auto {
		// Keep auto requests distinct from explicit options that happen to
		// carry the same knob values.
		w(1)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), bad
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
