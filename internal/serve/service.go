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
	// QueueDepth bounds each admission queue — solo and gang — beyond
	// which Submit fails with ErrOverloaded (default 256).
	QueueDepth int
	// MaxInFlight caps the number of graphs executing concurrently on
	// the runtime (default max(2, Workers)); solo jobs and gang batches
	// draw from the same permits. Queued jobs beyond it wait.
	MaxInFlight int
	// CacheBytes is the result cache budget: 0 selects 64 MiB, negative
	// disables caching.
	CacheBytes int64
	// GangSize is the largest number of gang-eligible jobs packed into
	// one graph (default 16); GangWait is how long the collector holds a
	// batch open for stragglers (default 2ms).
	GangSize int
	GangWait time.Duration
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
	if c.GangSize <= 0 {
		c.GangSize = 16
	}
	if c.GangWait <= 0 {
		c.GangWait = 2 * time.Millisecond
	}
	return c
}

// Request describes one unit of work. The service is generic: Build
// decides what the job computes by emitting its task graph.
type Request struct {
	// Build emits the job's tasks into g and returns a finish closure,
	// run after a successful execution, that extracts the result. Build
	// must emit fresh handles (never reuse another job's) and must be
	// safe to call again on a fresh graph: gang failures are retried
	// solo.
	Build func(g *sched.Graph) (finish func() (any, error), err error)
	// Key is the content-addressed cache key; empty bypasses the cache.
	Key string
	// Bytes reports the byte footprint of a finished result for cache
	// accounting; nil results are never cached.
	Bytes func(v any) int64
	// Gang marks the job eligible for gang batching (small graphs).
	Gang bool
	// Weight is the job's fair-share weight on the runtime (≤ 0: 1).
	Weight float64
	// Trace requests a measured execution timeline: the job runs solo
	// (never gang-batched — members share one graph) and bypasses the
	// result cache in both directions, so the trace reflects a real,
	// complete execution; Result.Trace carries the collected events.
	Trace bool
	// Executor, when non-nil, runs the job's graph instead of the shared
	// runtime (the cluster head's per-job mesh executor). Such a job owns
	// its tracing and is neither gang-batched nor observed.
	Executor pipeline.Executor
	// Observe, when non-nil, receives the job's whole-graph execution
	// meter after a successful solo run (cache hits and gang batches are
	// never observed: neither measures one clean graph). Called on the
	// dispatcher goroutine — keep it cheap.
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

// completeOK records the result; it reports false when the job was
// already finished (e.g. cancelled while its gang kept computing).
func (j *Job) completeOK(res *Result) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return false
	}
	j.finished = true
	j.res = res
	close(j.done)
	return true
}

func (j *Job) completeErr(err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return false
	}
	j.finished = true
	j.err = err
	close(j.done)
	return true
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

	queue chan *Job // solo admission
	gangq chan *Job // gang-eligible admission
	// sem bounds concurrently executing graphs — solo and gang runs draw
	// from the SAME MaxInFlight permits, so the configured cap holds for
	// the mixed load too.
	sem chan struct{}

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
		gangq:  make(chan *Job, cfg.QueueDepth),
		sem:    make(chan struct{}, cfg.MaxInFlight),
		closed: make(chan struct{}),
	}
	s.met.init()
	if s.rt == nil {
		s.rt = sched.NewRuntime(cfg.Workers)
		s.ownRt = true
	}
	for i := 0; i < cfg.MaxInFlight; i++ {
		s.wg.Add(1)
		go s.soloLoop()
	}
	s.wg.Add(1)
	go s.gangLoop()
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
			j.completeOK(&Result{Value: v, CacheHit: true})
			s.met.recordDone(time.Since(j.enqueued), 0)
			return j, nil
		}
		s.met.recordMiss()
	}

	target := s.queue
	if req.Gang && !req.Trace && req.Executor == nil {
		target = s.gangq
	}
	select {
	case target <- j:
	default:
		return nil, ErrOverloaded
	}
	// Close may have drained the queues between the closed check above
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
		GangQueueLen:  len(s.gangq),
		QueueCap:      s.cfg.QueueDepth,
		JobsDone:      s.met.jobsDone,
		JobsFailed:    s.met.jobsFailed,
		JobsCancelled: s.met.jobsCancelled,
		GangBatches:   s.met.gangBatches,
		GangJobs:      s.met.gangJobs,
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

// drain fails every job still sitting in the queues.
func (s *Service) drain() {
	for {
		select {
		case j := <-s.queue:
			s.fail(j, ErrClosed)
		case j := <-s.gangq:
			s.fail(j, ErrClosed)
		default:
			return
		}
	}
}

func (s *Service) fail(j *Job, err error) {
	if j.completeErr(err) {
		s.met.recordFail(err)
	}
}

func (s *Service) complete(j *Job, res *Result) {
	if j.completeOK(res) {
		s.met.recordDone(time.Since(j.enqueued), res.Queued)
	}
}

// soloLoop is one of MaxInFlight dispatchers draining the solo queue.
func (s *Service) soloLoop() {
	defer s.wg.Done()
	for {
		// Prefer shutdown over new work so Close fails queued jobs
		// instead of racing them into execution.
		select {
		case <-s.closed:
			s.drainSoloQueue()
			return
		default:
		}
		select {
		case j := <-s.queue:
			s.sem <- struct{}{}
			s.runSolo(j)
			<-s.sem
		case <-s.closed:
			s.drainSoloQueue()
			return
		}
	}
}

func (s *Service) drainSoloQueue() {
	for {
		select {
		case j := <-s.queue:
			s.fail(j, ErrClosed)
		default:
			return
		}
	}
}

// runSolo executes one job on its own graph. It is also the gang-failure
// fallback: Build is called on a fresh graph, so a retried member
// recomputes from its original input.
func (s *Service) runSolo(j *Job) {
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
	g := sched.NewGraph()
	finish, err := j.req.Build(g)
	if err != nil {
		s.fail(j, err)
		return
	}
	// A job without an executor of its own is one more graph on the shared
	// runtime, traced here; one with an executor (the mesh) traces itself.
	ex := j.req.Executor
	var tr *obs.Tracer
	if ex == nil {
		ex = pipeline.Shared{Runtime: s.rt, Weight: j.req.Weight}
		if j.req.Trace {
			// Sized at the task count so the timeline is complete however
			// unevenly the shared pool balances the job, unless the
			// configuration bounds trace memory with TraceEventCap.
			ringCap := len(g.Tasks)
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
	v, err := finish()
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

// gangLoop collects gang-eligible jobs into batches and hands each batch
// to a bounded set of gang runners.
func (s *Service) gangLoop() {
	defer s.wg.Done()
	var runners sync.WaitGroup
	defer runners.Wait()
	for {
		select {
		case j := <-s.gangq:
			batch := []*Job{j}
			timer := time.NewTimer(s.cfg.GangWait)
		collect:
			for len(batch) < s.cfg.GangSize {
				select {
				case j2 := <-s.gangq:
					batch = append(batch, j2)
				case <-timer.C:
					break collect
				case <-s.closed:
					break collect
				}
			}
			timer.Stop()
			s.sem <- struct{}{}
			runners.Add(1)
			go func(batch []*Job) {
				defer runners.Done()
				defer func() { <-s.sem }()
				s.runGang(batch)
			}(batch)
		case <-s.closed:
			for {
				select {
				case j := <-s.gangq:
					s.fail(j, ErrClosed)
				default:
					return
				}
			}
		}
	}
}

// runGang builds one graph out of every live member and executes it as a
// single runtime job weighted by its size. On failure — one member's
// kernel panicking fails the whole graph — the members are retried solo
// so the error lands only on the job that owns it.
func (s *Service) runGang(batch []*Job) {
	s.met.enter()
	defer s.met.exit()
	g := sched.NewGraph()
	type member struct {
		j      *Job
		finish func() (any, error)
	}
	var members []member
	var marks []int
	start := time.Now()
	for _, j := range batch {
		if j.isFinished() {
			continue
		}
		if err := j.ctx.Err(); err != nil {
			s.fail(j, err)
			continue
		}
		finish, err := j.req.Build(g)
		if err != nil {
			s.fail(j, err)
			continue
		}
		members = append(members, member{j: j, finish: finish})
		marks = append(marks, len(g.Tasks))
	}
	if len(members) == 0 {
		return
	}
	// Member-major priority bands: a worker drains member k before
	// touching k+1 (cache locality of a solo run), while idle workers
	// spill into younger members to fill the wavefront.
	g.SetScheduleBands(marks)
	// The gang runs under its own context: member cancellation after this
	// point discards that member's result without stopping the batch.
	if _, err := (pipeline.Shared{Runtime: s.rt, Weight: float64(len(members))}).Execute(context.Background(), g); err != nil {
		for _, m := range members {
			s.runSolo(m.j)
		}
		return
	}
	s.met.recordGang(len(members))
	for _, m := range members {
		v, ferr := m.finish()
		if ferr != nil {
			s.fail(m.j, ferr)
			continue
		}
		s.publish(m.j, v)
		s.complete(m.j, &Result{Value: v, Queued: start.Sub(m.j.enqueued), Ran: time.Since(start)})
	}
}
