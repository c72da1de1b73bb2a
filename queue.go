package bidiag

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/tiled-la/bidiag/internal/cluster"
	"github.com/tiled-la/bidiag/internal/obs"
	"github.com/tiled-la/bidiag/internal/pipeline"
)

// request is an admitted job as the dispatcher sees it.
type request struct {
	// build returns the job, built once, on the dispatcher goroutine, when
	// it leaves the queue. The queue tests hand in fake graphs here.
	build func() (job, error)
	// later bounds the tasks the job's finish runs on the tracer after its
	// first graph: a traced job's rings hold both.
	later int
	// key is the content-addressed cache key; empty bypasses the cache.
	key string
	// trace records the job's execution. A traced job bypasses the cache
	// in both directions, so its trace is of one complete real run.
	trace bool
	// observe, when set, receives the whole-graph meter of a successful
	// run (cache hits are never observed), on the dispatcher goroutine.
	observe func(obs.MeterSnapshot)
}

// Job is an in-flight service job.
type Job struct {
	req      request
	ctx      context.Context
	enqueued time.Time

	mu       sync.Mutex
	finished bool
	res      *JobResult
	err      error
	// stop deregisters the watch that fails the job when ctx ends.
	stop func() bool
	done chan struct{}
}

// Wait blocks until the job finishes.
func (j *Job) Wait() (*JobResult, error) {
	<-j.done
	return j.res, j.err
}

// Done returns a channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.done }

// end finishes the job with its outcome unless it already finished (e.g.
// cancelled while its graph was running). record counts it first, so a
// caller returning from Wait sees the job in the next Stats.
func (j *Job) end(res *JobResult, err error, record func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return
	}
	j.finished = true
	if j.stop != nil {
		j.stop()
	}
	j.res, j.err = res, err
	record()
	close(j.done)
}

func (j *Job) isFinished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished
}

// submit admits a lowered job: a cache hit finishes at once, anything
// else joins the admission queue.
func (s *Service) submit(ctx context.Context, req request) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-s.closed:
		return nil, ErrServiceClosed
	default:
	}
	j := &Job{req: req, ctx: ctx, enqueued: time.Now(), done: make(chan struct{})}

	if req.key != "" && !req.trace {
		if v, ok := s.cache.get(req.key); ok {
			s.met.recordHit()
			hit := *v
			hit.CacheHit = true
			s.complete(j, &hit, 0)
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
		// Cancellation is prompt even while the job sits in the queue or
		// its finish runs; the dispatcher skips finished jobs. The watch
		// costs no goroutine until ctx ends, and ending the job removes it.
		j.mu.Lock()
		if !j.finished {
			j.stop = context.AfterFunc(ctx, func() { s.fail(j, context.Cause(ctx)) })
		}
		j.mu.Unlock()
	}
	return j, nil
}

// drain fails every job still sitting in the queue.
func (s *Service) drain() {
	for {
		select {
		case j := <-s.queue:
			s.fail(j, ErrServiceClosed)
		default:
			return
		}
	}
}

// fail ends a job with err, counting it as cancelled if its ctx is done.
func (s *Service) fail(j *Job, err error) {
	j.end(nil, err, func() { s.met.recordFail(j.ctx.Err() != nil, errors.Is(err, ErrNumerical)) })
}

func (s *Service) complete(j *Job, res *JobResult, queued time.Duration) {
	j.end(res, nil, func() { s.met.recordDone(time.Since(j.enqueued), queued) })
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

// run executes one job: its first graph on the shared runtime or on the
// job's own executor (the mesh, which traces itself), then its finish,
// whose graphs run on the shared runtime.
func (s *Service) run(j *Job) {
	if j.isFinished() {
		return
	}
	if j.ctx.Err() != nil {
		s.fail(j, context.Cause(j.ctx))
		return
	}
	s.met.enter()
	defer s.met.exit()
	start := time.Now()
	w, err := j.req.build()
	if err != nil {
		s.fail(j, err)
		return
	}
	g, ex := w.plan.Graph, w.stage1
	shared := pipeline.Shared{Runtime: s.rt}
	var tr *obs.Tracer
	if ex == nil {
		ex = shared
		if j.req.trace {
			// Sized at the job's task count so the timeline is complete
			// however unevenly the shared pool balances the job, unless the
			// configuration bounds trace memory with TraceEventCap.
			ringCap := len(g.Tasks) + j.req.later
			if s.cfg.TraceEventCap > 0 {
				ringCap = s.cfg.TraceEventCap
			}
			tr = obs.NewTracer(s.rt.Workers(), ringCap)
			g.Tracer = tr
		}
	}
	var mt *obs.Meter
	if j.req.observe != nil {
		mt = new(obs.Meter)
		g.Meter = mt
	}
	if _, err := ex.Execute(j.ctx, g); err != nil {
		s.fail(j, err)
		return
	}
	res, err := w.finish(j.ctx, shared)
	if err != nil {
		s.fail(j, err)
		return
	}
	if mesh, ok := ex.(*cluster.Job); ok {
		res.Trace = mesh.Trace
	} else if tr != nil {
		if ev, dropped := tr.Events(), tr.Dropped(); len(ev) > 0 {
			res.Trace = cluster.LocalTrace(s.rt.Workers(), ev, dropped)
			s.met.recordTraceDropped(uint64(dropped))
		}
	}
	if res.Trace != nil {
		res.Timeline = toTimeline(res.Trace.Events)
	}
	if mt != nil {
		j.req.observe(mt.Snapshot())
	}
	// Traced jobs never publish: they bypassed the cache lookup, so
	// publishing would let one traced run overwrite an entry other
	// submitters already rely on.
	if !j.req.trace && j.req.key != "" {
		s.cache.add(j.req.key, res, cacheOverhead+resultBytes(res))
	}
	s.complete(j, res, start.Sub(j.enqueued))
}

// checkResult is the check a finished result passes before it is
// published: S finite, non-negative and non-increasing, and for an SVD
// job U and V finite. A failure wraps ErrNumerical.
func checkResult(res *JobResult) error {
	prev := math.Inf(1)
	for i, s := range res.Values {
		if !(s >= 0 && s <= prev) || math.IsInf(s, 1) { // NaN fails s >= 0
			return fmt.Errorf("%w: S[%d] = %v", ErrNumerical, i, s)
		}
		prev = s
	}
	if res.SVD != nil {
		if res.SVD.U.CheckFinite() != nil || res.SVD.V.CheckFinite() != nil {
			return fmt.Errorf("%w: a singular vector has a non-finite entry", ErrNumerical)
		}
	}
	return nil
}

// cacheOverhead is the accounting charge per cache entry beyond the
// payload.
const cacheOverhead = 128

// resultBytes accounts a finished result for the cache budget.
func resultBytes(r *JobResult) int64 {
	n := len(r.Values)
	if r.SVD != nil {
		n += r.SVD.U.Rows()*r.SVD.U.Cols() + r.SVD.V.Rows()*r.SVD.V.Cols()
	}
	return int64(8 * n)
}

// cache is a byte-budgeted LRU of finished job results, keyed by the
// job's content-addressed key.
type cache struct {
	mu    sync.Mutex
	cap   int64 // byte budget; ≤ 0 disables the cache
	bytes int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key   string
	v     *JobResult
	bytes int64
}

func newCache(capBytes int64) *cache {
	return &cache{cap: capBytes, ll: list.New(), items: map[string]*list.Element{}}
}

// get returns the cached result and refreshes its recency.
func (c *cache) get(key string) (*JobResult, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).v, true
}

// add inserts a result of the given byte footprint, evicting
// least-recently-used entries past the budget. Results larger than the
// whole budget are not stored.
func (c *cache) add(key string, v *JobResult, bytes int64) {
	if c.cap <= 0 || bytes > c.cap {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// Same key means same content-addressed computation; keep the
		// existing result, just refresh recency.
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, v: v, bytes: bytes})
	c.bytes += bytes
	for c.bytes > c.cap {
		back := c.ll.Back()
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, ent.key)
		c.bytes -= ent.bytes
	}
}

// stats returns the entry count, resident bytes and budget.
func (c *cache) stats() (entries int, bytes, capacity int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.bytes, c.cap
}

// metrics aggregates the service counters. Latency and queue wait live in
// fixed-bucket histograms rather than a sliding window: quantiles survive
// bursts of any length, and the buckets export directly as Prometheus
// histogram series from the daemon's /metrics endpoint.
type metrics struct {
	mu sync.Mutex

	jobsDone, jobsFailed, jobsCancelled uint64
	jobsNumerical                       uint64
	cacheHits, cacheMisses              uint64
	traceDropped                        uint64
	inflight                            int

	lat   *obs.Histogram // enqueue-to-completion, seconds
	qwait *obs.Histogram // enqueue-to-dispatch, seconds
}

// recordDone counts one finished job with its total latency and the
// portion spent queued before dispatch.
func (m *metrics) recordDone(total, queued time.Duration) {
	m.mu.Lock()
	m.jobsDone++
	m.mu.Unlock()
	m.lat.Observe(total.Seconds())
	m.qwait.Observe(queued.Seconds())
}

func (m *metrics) recordFail(cancelled, numerical bool) {
	m.mu.Lock()
	switch {
	case cancelled:
		m.jobsCancelled++
	case numerical:
		m.jobsNumerical++
	default:
		m.jobsFailed++
	}
	m.mu.Unlock()
}

func (m *metrics) recordTraceDropped(n uint64) { m.mu.Lock(); m.traceDropped += n; m.mu.Unlock() }
func (m *metrics) recordHit()                  { m.mu.Lock(); m.cacheHits++; m.mu.Unlock() }
func (m *metrics) recordMiss()                 { m.mu.Lock(); m.cacheMisses++; m.mu.Unlock() }
func (m *metrics) enter()                      { m.mu.Lock(); m.inflight++; m.mu.Unlock() }
func (m *metrics) exit()                       { m.mu.Lock(); m.inflight--; m.mu.Unlock() }
