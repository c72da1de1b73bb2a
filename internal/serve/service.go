package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"github.com/tiled-la/bidiag/internal/obs"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/sched"
)

// ErrOverloaded is returned by Submit when the admission queue is full:
// the caller should shed or retry with backoff (the daemon maps it to
// HTTP 429).
var ErrOverloaded = errors.New("serve: admission queue full")

// ErrClosed is returned by Submit after Close, and by Wait for jobs the
// shutdown drained.
var ErrClosed = errors.New("serve: service closed")

// Config sizes the service. Zero fields select the defaults.
type Config struct {
	// Workers is the shared pool size (default GOMAXPROCS). Ignored when
	// Runtime is set.
	Workers int
	// QueueDepth bounds the admission queue, beyond which Submit fails
	// with ErrOverloaded (default 256).
	QueueDepth int
	// MaxInFlight caps the number of graphs executing concurrently on
	// the runtime (default max(2, Workers)). Queued jobs beyond it wait.
	MaxInFlight int
	// CacheBytes is the result cache budget: 0 selects 64 MiB, negative
	// disables caching.
	CacheBytes int64
	// TraceEventCap bounds each per-worker trace ring of a traced job.
	// 0 sizes the rings at the job's task count so timelines are always
	// complete; a smaller cap bounds trace memory instead, and events
	// beyond it are dropped and counted in Stats.TraceDropped.
	TraceEventCap int
	// Runtime, when non-nil, is an externally owned shared pool — the
	// service will not close it. Nil starts a pool of Workers.
	Runtime *sched.Runtime
}

func (c Config) withDefaults() Config {
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
	return c
}

// Request describes one unit of work. The service is generic: Build
// decides what the job computes by building its task graph.
type Request struct {
	// Build returns the job's task graph and a finish closure, run after
	// a successful execution under the job's ctx, that extracts the
	// result. It runs once, on the dispatcher goroutine, when the job
	// leaves the queue.
	Build func() (g *sched.Graph, finish func(context.Context) (any, error), err error)
	// FinishTasks is the number of tasks finish runs on the graph's
	// tracer after it (a second graph of the job on the shared runtime):
	// a traced job's rings are sized for the graph's tasks plus these.
	FinishTasks int
	// Key is the content-addressed cache key; empty bypasses the cache.
	Key string
	// Bytes reports the byte footprint of a finished result for cache
	// accounting; nil results are never cached.
	Bytes func(v any) int64
	// Trace requests a measured execution timeline: the job bypasses the
	// result cache in both directions, so the trace reflects a real,
	// complete execution; Result.Trace carries the collected events.
	Trace bool
	// Executor, when non-nil, runs the job's graph instead of the shared
	// runtime (the cluster head's per-job mesh executor). Such a job owns
	// its tracing.
	Executor pipeline.Executor
	// Observe, when non-nil, receives the job's whole-graph execution
	// meter after a successful run (cache hits are never observed).
	// Called on the dispatcher goroutine — keep it cheap.
	Observe func(obs.MeterSnapshot)
}

// Result is a finished job's outcome.
type Result struct {
	// Value is what the request's finish closure returned (a cached
	// value on CacheHit — treat it as immutable).
	Value any
	// CacheHit reports that the result came from the cache.
	CacheHit bool
	// Queued and Ran split the job's latency at dispatch time.
	Queued, Ran time.Duration
	// Trace is the measured per-task timeline of a Request.Trace job,
	// ordered by start time; nil otherwise. TraceDropped counts the events
	// its rings had no room for.
	Trace        []obs.Event
	TraceDropped int64
}

// Job tracks one submitted request.
type Job struct {
	req      Request
	ctx      context.Context
	enqueued time.Time

	mu       sync.Mutex
	finished bool
	res      *Result
	err      error
	done     chan struct{}
}

// Wait blocks until the job finishes and returns its result or error.
func (j *Job) Wait() (*Result, error) {
	<-j.done
	return j.res, j.err
}

// Done returns a channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.done }

// end finishes the job with its outcome unless it already finished (e.g.
// cancelled while its graph was finishing). record counts it first, so
// a caller returning from Wait sees the job in the next Stats.
func (j *Job) end(res *Result, err error, record func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return
	}
	j.finished = true
	j.res, j.err = res, err
	record()
	close(j.done)
}

func (j *Job) isFinished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished
}

// Service is the concurrent job manager. See the package documentation
// for the architecture.
type Service struct {
	cfg   Config
	rt    *sched.Runtime
	ownRt bool
	cache *cache
	met   metrics

	// queue is the admission queue, drained by MaxInFlight dispatchers:
	// at most that many graphs execute at once.
	queue chan *Job

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

// New starts a service. Close releases it.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:    cfg,
		rt:     cfg.Runtime,
		cache:  newCache(cfg.CacheBytes),
		queue:  make(chan *Job, cfg.QueueDepth),
		closed: make(chan struct{}),
	}
	s.met.init()
	if s.rt == nil {
		s.rt = sched.NewRuntime(cfg.Workers)
		s.ownRt = true
	}
	for i := 0; i < cfg.MaxInFlight; i++ {
		s.wg.Add(1)
		go s.dispatch()
	}
	return s
}

// Runtime returns the shared pool the service executes on.
func (s *Service) Runtime() *sched.Runtime { return s.rt }

// Submit admits a job and returns immediately. It fails fast with
// ErrOverloaded when the admission queue is full and ErrClosed after
// Close. A cancelled ctx fails the job promptly with ctx.Err(), queued
// or mid-graph.
func (s *Service) Submit(ctx context.Context, req Request) (*Job, error) {
	if req.Build == nil {
		return nil, errors.New("serve: Request.Build is nil")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-s.closed:
		return nil, ErrClosed
	default:
	}
	j := &Job{req: req, ctx: ctx, enqueued: time.Now(), done: make(chan struct{})}

	if req.Key != "" && !req.Trace {
		if v, ok := s.cache.get(req.Key); ok {
			s.met.recordHit()
			j.end(&Result{Value: v, CacheHit: true}, nil, func() { s.met.recordDone(time.Since(j.enqueued), 0) })
			return j, nil
		}
		s.met.recordMiss()
	}

	select {
	case s.queue <- j:
	default:
		return nil, ErrOverloaded
	}
	// Close may have drained the queue between the closed check above
	// and the push: rescue the stranded job (and any neighbours) so no
	// Wait blocks forever. Reaching here with the service open is the
	// common case and costs one channel read.
	select {
	case <-s.closed:
		s.drain()
	default:
	}
	if ctx.Done() != nil {
		// Make cancellation prompt even while the job sits in the queue;
		// the dispatcher skips finished jobs.
		go func() {
			select {
			case <-ctx.Done():
				s.fail(j, ctx.Err())
			case <-j.done:
			}
		}()
	}
	return j, nil
}

// Do is Submit followed by Wait.
func (s *Service) Do(ctx context.Context, req Request) (*Result, error) {
	j, err := s.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return j.Wait()
}

// Stats returns a point-in-time snapshot of the service counters.
func (s *Service) Stats() Stats {
	entries, bytes, capacity := s.cache.stats()
	s.met.mu.Lock()
	st := Stats{
		Workers:       s.rt.Workers(),
		InFlight:      s.met.inflight,
		QueueLen:      len(s.queue),
		QueueCap:      s.cfg.QueueDepth,
		JobsDone:      s.met.jobsDone,
		JobsFailed:    s.met.jobsFailed,
		JobsCancelled: s.met.jobsCancelled,
		CacheHits:     s.met.cacheHits,
		CacheMisses:   s.met.cacheMisses,
		TraceDropped:  s.met.traceDropped,
		CacheEntries:  entries,
		CacheBytes:    bytes,
		CacheCap:      capacity,
	}
	s.met.mu.Unlock()
	st.WorkspaceBytes = s.rt.WorkspaceBytes()
	st.Sched = s.rt.Stats()
	st.Latency = s.met.lat.Snapshot()
	st.QueueWait = s.met.qwait.Snapshot()
	st.P50 = time.Duration(st.Latency.Quantile(0.50) * float64(time.Second))
	st.P99 = time.Duration(st.Latency.Quantile(0.99) * float64(time.Second))
	return st
}

// Close stops admission, fails queued jobs with ErrClosed, waits for
// in-flight jobs to finish, and — when the service owns its runtime —
// winds the shared pool down. Safe to call more than once.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.wg.Wait()
		s.drain()
		if s.ownRt {
			s.rt.Close()
		}
	})
}

// drain fails every job still sitting in the queue.
func (s *Service) drain() {
	for {
		select {
		case j := <-s.queue:
			s.fail(j, ErrClosed)
		default:
			return
		}
	}
}

func (s *Service) fail(j *Job, err error) {
	j.end(nil, err, func() { s.met.recordFail(err) })
}

func (s *Service) complete(j *Job, res *Result) {
	j.end(res, nil, func() { s.met.recordDone(time.Since(j.enqueued), res.Queued) })
}

// dispatch is one of MaxInFlight dispatchers draining the queue.
func (s *Service) dispatch() {
	defer s.wg.Done()
	for {
		// Prefer shutdown over new work so Close fails queued jobs
		// instead of racing them into execution.
		select {
		case <-s.closed:
			s.drain()
			return
		default:
		}
		select {
		case j := <-s.queue:
			s.run(j)
		case <-s.closed:
			s.drain()
			return
		}
	}
}

// run executes one job: its graph on the shared runtime, or on the
// job's own executor.
func (s *Service) run(j *Job) {
	if j.isFinished() {
		return
	}
	if err := j.ctx.Err(); err != nil {
		s.fail(j, err)
		return
	}
	s.met.enter()
	defer s.met.exit()
	start := time.Now()
	g, finish, err := j.req.Build()
	if err != nil {
		s.fail(j, err)
		return
	}
	// A job without an executor of its own is one more graph on the shared
	// runtime, traced here; one with an executor (the mesh) traces itself.
	ex := j.req.Executor
	var tr *obs.Tracer
	if ex == nil {
		ex = pipeline.Shared{Runtime: s.rt}
		if j.req.Trace {
			// Sized at the job's task count so the timeline is complete
			// however unevenly the shared pool balances the job, unless the
			// configuration bounds trace memory with TraceEventCap.
			ringCap := len(g.Tasks) + j.req.FinishTasks
			if s.cfg.TraceEventCap > 0 {
				ringCap = s.cfg.TraceEventCap
			}
			tr = obs.NewTracer(s.rt.Workers(), ringCap)
			g.Tracer = tr
		}
	}
	var mt *obs.Meter
	if j.req.Observe != nil {
		mt = new(obs.Meter)
		g.Meter = mt
	}
	if _, err := ex.Execute(j.ctx, g); err != nil {
		s.fail(j, err)
		return
	}
	v, err := finish(j.ctx)
	if err != nil {
		s.fail(j, err)
		return
	}
	res := &Result{Value: v, Queued: start.Sub(j.enqueued), Ran: time.Since(start)}
	if tr != nil {
		res.Trace, res.TraceDropped = tr.Events(), tr.Dropped()
		if res.TraceDropped > 0 {
			s.met.recordTraceDropped(uint64(res.TraceDropped))
		}
	}
	if mt != nil {
		j.req.Observe(mt.Snapshot())
	}
	s.publish(j, v)
	s.complete(j, res)
}

// publish inserts a finished result into the cache. Traced jobs never
// publish: they bypassed the cache lookup, so publishing would let one
// traced run overwrite an entry other submitters already rely on.
func (s *Service) publish(j *Job, v any) {
	if j.req.Trace || j.req.Key == "" || j.req.Bytes == nil || v == nil {
		return
	}
	s.cache.add(j.req.Key, v, s.cfg.overhead()+j.req.Bytes(v))
}

// overhead is the accounting charge per cache entry beyond the payload.
func (c Config) overhead() int64 { return 128 }
