package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/tiled-la/bidiag/internal/obs"
	"github.com/tiled-la/bidiag/internal/sched"
)

// metrics aggregates the service counters. Latency and queue wait live in
// fixed-bucket histograms (internal/obs) rather than a sliding window:
// quantiles survive bursts of any length, and the buckets export directly
// as Prometheus histogram series from the daemon's /metrics endpoint.
// All methods are safe for concurrent use.
type metrics struct {
	mu sync.Mutex

	jobsDone, jobsFailed, jobsCancelled uint64
	cacheHits, cacheMisses              uint64
	traceDropped                        uint64
	inflight                            int

	lat   *obs.Histogram // enqueue-to-completion, seconds
	qwait *obs.Histogram // enqueue-to-dispatch, seconds
}

func (m *metrics) init() {
	m.lat = obs.NewHistogram(nil)
	m.qwait = obs.NewHistogram(nil)
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

func (m *metrics) recordFail(err error) {
	m.mu.Lock()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		m.jobsCancelled++
	} else {
		m.jobsFailed++
	}
	m.mu.Unlock()
}

// recordTraceDropped counts trace-ring events a traced job lost to a
// TraceEventCap smaller than its task count.
func (m *metrics) recordTraceDropped(n uint64) {
	m.mu.Lock()
	m.traceDropped += n
	m.mu.Unlock()
}

func (m *metrics) recordHit()  { m.mu.Lock(); m.cacheHits++; m.mu.Unlock() }
func (m *metrics) recordMiss() { m.mu.Lock(); m.cacheMisses++; m.mu.Unlock() }

func (m *metrics) enter() { m.mu.Lock(); m.inflight++; m.mu.Unlock() }
func (m *metrics) exit()  { m.mu.Lock(); m.inflight--; m.mu.Unlock() }

// Stats is a point-in-time snapshot of the service, the figure exported
// by the daemon's /metrics and /debug/vars endpoints.
type Stats struct {
	// Workers is the shared pool size; InFlight counts jobs currently
	// executing (admitted to the runtime or finishing).
	Workers, InFlight int
	// QueueLen is the instantaneous admission-queue depth; QueueCap is
	// its bound.
	QueueLen, QueueCap int

	JobsDone, JobsFailed, JobsCancelled uint64
	CacheHits, CacheMisses              uint64
	CacheEntries                        int
	CacheBytes, CacheCap                int64

	// TraceDropped counts trace-ring events lost across every traced job
	// whose rings overflowed (Config.TraceEventCap below the task count).
	TraceDropped uint64

	// WorkspaceBytes is the total scratch-arena footprint of the pool's
	// workers.
	WorkspaceBytes int64

	// Sched is the shared worker loop's own view: ready tasks across all
	// jobs, cumulative worker sleep time, wake-ups issued.
	Sched sched.RuntimeStats

	// Latency and QueueWait are the full bucketed distributions (seconds)
	// of job latency (enqueue to completion, cache hits included) and
	// queue wait (enqueue to dispatch) over the service's lifetime.
	Latency, QueueWait obs.HistogramSnapshot

	// P50 and P99 are estimated from the Latency buckets.
	P50, P99 time.Duration
}
