package bidiag

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/sched"
)

// The tests in this file drive the admission queue, dispatchers, cache
// and counters with fake graphs, handed in through a request's build
// hook instead of a matrix job.

// graphJob wraps a test graph and its finish as a service job.
func graphJob(g *sched.Graph, finish func(context.Context) (*JobResult, error)) job {
	return job{plan: &pipeline.Plan{Graph: g}, finish: func(ctx context.Context, _ pipeline.Executor) (*JobResult, error) {
		return finish(ctx)
	}}
}

// sumRequest builds a 3-task chain that computes base + 1 + 2 + 3; builds
// is incremented per build so tests can count recomputations.
func sumRequest(base int64, builds *atomic.Int32) request {
	return request{build: func() (job, error) {
		if builds != nil {
			builds.Add(1)
		}
		g := sched.NewGraph()
		acc := float64(base)
		h := g.NewHandle(8, 0)
		for i := 1; i <= 3; i++ {
			v := float64(i)
			g.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) {
				acc += v
			}, sched.RW(h))
		}
		return graphJob(g, func(context.Context) (*JobResult, error) { return &JobResult{Values: []float64{acc}}, nil }), nil
	}}
}

// gateRequest builds a single task that blocks until release closes.
func gateRequest(release chan struct{}) request {
	return request{build: func() (job, error) {
		g := sched.NewGraph()
		h := g.NewHandle(8, 0)
		g.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) {
			<-release
		}, sched.RW(h))
		return graphJob(g, func(context.Context) (*JobResult, error) { return &JobResult{}, nil }), nil
	}}
}

// doRequest is Service.Do for a lowered request.
func doRequest(s *Service, ctx context.Context, req request) (*JobResult, error) {
	j, err := s.submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return j.Wait()
}

// waitDispatched waits until a dispatcher has picked up a job, so the
// next submit truly sits in the queue.
func waitDispatched(t *testing.T, s *Service) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServiceDo(t *testing.T) {
	s := NewService(&ServiceConfig{Workers: 2})
	defer s.Close()
	res, err := doRequest(s, context.Background(), sumRequest(10, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 16 {
		t.Fatalf("Do = %v, want 16", res.Values)
	}
	st := s.Stats()
	if st.JobsDone != 1 || st.InFlight != 0 {
		t.Fatalf("stats after one job: %+v", st)
	}
}

// TestNumericalResultIsNotPublished: a result whose S fails the check
// its job's finish makes is an ErrNumerical failure, counted apart from
// other failures and not cached, so the same request runs again.
func TestNumericalResultIsNotPublished(t *testing.T) {
	s := NewService(&ServiceConfig{Workers: 1})
	defer s.Close()
	for _, bad := range [][]float64{{math.NaN()}, {math.Inf(1)}, {1, -1}, {1, 2}} {
		var builds atomic.Int32
		req := sumRequest(0, &builds)
		build := req.build
		req.build = func() (job, error) {
			w, err := build()
			w.finish = func(context.Context, pipeline.Executor) (*JobResult, error) {
				// A finish checks what it computed, as newJob's does.
				res := &JobResult{Values: bad}
				return res, checkResult(res)
			}
			return w, err
		}
		req.key = fmt.Sprint("bad", bad)
		for i := 0; i < 2; i++ {
			if _, err := doRequest(s, context.Background(), req); !errors.Is(err, ErrNumerical) {
				t.Fatalf("S = %v: %v, want ErrNumerical", bad, err)
			}
		}
		if n := builds.Load(); n != 2 {
			t.Fatalf("S = %v: built %d times, want 2 (no cache entry)", bad, n)
		}
	}
	if st := s.Stats(); st.JobsNumerical != 8 || st.JobsFailed != 0 || st.JobsDone != 0 || st.CacheHits != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// A good result with zeros and ties passes.
	if err := checkResult(&JobResult{Values: []float64{3, 3, 0, 0}}); err != nil {
		t.Fatal(err)
	}
}

func TestBackpressure(t *testing.T) {
	s := NewService(&ServiceConfig{Workers: 1, MaxInFlight: 1, QueueDepth: 1, CacheBytes: -1})
	defer s.Close()

	release := make(chan struct{})
	blocker, err := s.submit(context.Background(), gateRequest(release))
	if err != nil {
		t.Fatal(err)
	}
	waitDispatched(t, s)
	queued, err := s.submit(context.Background(), sumRequest(0, nil))
	if err != nil {
		t.Fatalf("queue slot should be free: %v", err)
	}
	if _, err := s.submit(context.Background(), sumRequest(0, nil)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded Submit = %v, want ErrOverloaded", err)
	}
	close(release)
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHit(t *testing.T) {
	s := NewService(&ServiceConfig{Workers: 1})
	defer s.Close()
	var builds atomic.Int32
	req := sumRequest(5, &builds)
	req.key = "sum-5"
	r1, err := doRequest(s, context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := doRequest(s, context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit || !r2.CacheHit {
		t.Fatalf("cache hits: first %v second %v, want false/true", r1.CacheHit, r2.CacheHit)
	}
	if r1.Values[0] != 11 || r2.Values[0] != 11 {
		t.Fatalf("values %v, %v, want 11", r1.Values, r2.Values)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheEntries != 1 {
		t.Fatalf("cache stats: %+v", st)
	}
}

func TestCacheEviction(t *testing.T) {
	// Budget fits exactly one entry (payload 8 + overhead 128).
	s := NewService(&ServiceConfig{Workers: 1, CacheBytes: 200})
	defer s.Close()
	for i := 0; i < 3; i++ {
		req := sumRequest(int64(i), nil)
		req.key = fmt.Sprintf("k%d", i)
		if _, err := doRequest(s, context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CacheEntries != 1 {
		t.Fatalf("cache entries = %d, want 1 (LRU under a one-entry budget)", st.CacheEntries)
	}
	// The survivor is the most recent key.
	req := sumRequest(2, nil)
	req.key = "k2"
	res, err := doRequest(s, context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("most recent key should have survived eviction")
	}
}

// TestPanicIsolation runs a job whose kernel panics among healthy jobs
// in flight on the same service: only the bad job fails, with an error
// naming the kernel, and every healthy job returns its value.
func TestPanicIsolation(t *testing.T) {
	s := NewService(&ServiceConfig{Workers: 2, CacheBytes: -1})
	defer s.Close()

	bad := request{build: func() (job, error) {
		g := sched.NewGraph()
		h := g.NewHandle(8, 0)
		g.AddTask(kernels.TSQRTKind, 0, 1, 1, func(*nla.Workspace) {
			panic("deliberate")
		}, sched.RW(h))
		return graphJob(g, func(context.Context) (*JobResult, error) { return &JobResult{}, nil }), nil
	}}
	var jobs []*Job
	var badJob *Job
	for i := 0; i < 8; i++ {
		j, err := s.submit(context.Background(), sumRequest(int64(10*i), nil))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		if i == 3 {
			if badJob, err = s.submit(context.Background(), bad); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("healthy job %d failed: %v", i, err)
		}
		if want := float64(10*i + 6); res.Values[0] != want {
			t.Fatalf("job %d = %v, want %v", i, res.Values, want)
		}
	}
	if _, err := badJob.Wait(); err == nil || !strings.Contains(err.Error(), "TSQRT") {
		t.Fatalf("bad job error = %v, want kernel panic naming TSQRT", err)
	}
	if st := s.Stats(); st.JobsFailed != 1 || st.JobsDone != 8 {
		t.Fatalf("stats after one panic: %+v", st)
	}
}

func TestCancelWhileQueued(t *testing.T) {
	s := NewService(&ServiceConfig{Workers: 1, MaxInFlight: 1, QueueDepth: 4, CacheBytes: -1})
	defer s.Close()
	release := make(chan struct{})
	blocker, err := s.submit(context.Background(), gateRequest(release))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	queued, err := s.submit(ctx, sumRequest(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	// The queued job must fail promptly even though the dispatcher is
	// stuck behind the blocker.
	select {
	case <-queued.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued job did not finish promptly")
	}
	if _, err := queued.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued.Wait = %v, want context.Canceled", err)
	}
	close(release)
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.JobsCancelled != 1 {
		t.Fatalf("stats: %+v, want 1 cancelled", st)
	}
}

// TestCancelReportsCause cancels two jobs with a cause, one while it is
// queued behind a blocker and one while its graph runs: each returns the
// cause, not context.Canceled, and each is counted as cancelled.
func TestCancelReportsCause(t *testing.T) {
	s := NewService(&ServiceConfig{Workers: 1, MaxInFlight: 1, QueueDepth: 4, CacheBytes: -1})
	defer s.Close()
	gone := errors.New("client went away")

	gate := make(chan struct{})
	blocker, err := s.submit(context.Background(), gateRequest(gate))
	if err != nil {
		t.Fatal(err)
	}
	waitDispatched(t, s)
	ctx, cancel := context.WithCancelCause(context.Background())
	queued, err := s.Submit(ctx, JobRequest{A: randomDense(3, 64, 48), Opts: &Options{NB: 16}})
	if err != nil {
		t.Fatal(err)
	}
	cancel(gone)
	select {
	case <-queued.Done():
	case <-time.After(5 * time.Second):
		t.Error("cancelled queued job did not finish promptly")
	}
	close(gate)
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Wait(); !errors.Is(err, gone) {
		t.Fatalf("queued job = %v, want its cause", err)
	}

	// The task outlives the cancellation, so the job cannot finish before
	// the cancellation reaches it.
	ctx, cancel = context.WithCancelCause(context.Background())
	running, release := make(chan struct{}), make(chan struct{})
	stuck, err := s.submit(ctx, request{build: func() (job, error) {
		g := sched.NewGraph()
		h := g.NewHandle(8, 0)
		g.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) {
			close(running)
			<-release
		}, sched.RW(h))
		return graphJob(g, func(context.Context) (*JobResult, error) { return &JobResult{}, nil }), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	cancel(gone)
	select {
	case <-stuck.Done():
	case <-time.After(5 * time.Second):
		t.Error("job cancelled mid-graph did not finish promptly")
	}
	close(release)
	if _, err := stuck.Wait(); !errors.Is(err, gone) {
		t.Fatalf("mid-graph job = %v, want its cause", err)
	}
	if st := s.Stats(); st.JobsCancelled != 2 || st.JobsFailed != 0 {
		t.Fatalf("stats: %+v, want 2 cancelled and none failed", st)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	s := NewService(&ServiceConfig{Workers: 1})
	s.Close()
	if _, err := s.submit(context.Background(), sumRequest(0, nil)); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("Submit after Close = %v, want ErrServiceClosed", err)
	}
	s.Close() // idempotent
}

func TestManyConcurrentJobs(t *testing.T) {
	s := NewService(&ServiceConfig{Workers: 4, QueueDepth: 128, CacheBytes: -1})
	defer s.Close()
	const n = 64
	var wg sync.WaitGroup
	vals := make([]float64, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := doRequest(s, context.Background(), sumRequest(int64(i), nil))
			if err != nil {
				errs[i] = err
				return
			}
			vals[i] = res.Values[0]
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if vals[i] != float64(i+6) {
			t.Fatalf("job %d = %v, want %d", i, vals[i], i+6)
		}
	}
	st := s.Stats()
	if st.JobsDone != n {
		t.Fatalf("JobsDone = %d, want %d", st.JobsDone, n)
	}
	if st.P99 == 0 {
		t.Fatal("latency window empty after 64 jobs")
	}
}

func TestTracedJob(t *testing.T) {
	s := NewService(&ServiceConfig{Workers: 2})
	defer s.Close()
	var builds atomic.Int32
	req := sumRequest(7, &builds)
	req.key = "sum-7"
	req.trace = true

	// Seed the cache through an untraced request with the same key.
	plain := sumRequest(7, &builds)
	plain.key = "sum-7"
	if _, err := doRequest(s, context.Background(), plain); err != nil {
		t.Fatal(err)
	}

	res, err := doRequest(s, context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("traced job must bypass the cache")
	}
	if res.Values[0] != 13 {
		t.Fatalf("traced value = %v, want 13", res.Values)
	}
	if len(res.Timeline) != 3 {
		t.Fatalf("trace has %d events, want 3", len(res.Timeline))
	}
	for i, e := range res.Timeline {
		if e.Kernel != kernels.GEQRTKind.String() || e.End < e.Start {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("build ran %d times, want 2 (trace bypasses cache)", n)
	}
}

func TestStatsHistograms(t *testing.T) {
	s := NewService(&ServiceConfig{Workers: 1})
	defer s.Close()
	for i := 0; i < 5; i++ {
		if _, err := doRequest(s, context.Background(), sumRequest(int64(i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Latency.Count != 5 || st.QueueWait.Count != 5 {
		t.Fatalf("histogram counts lat=%d qwait=%d, want 5/5", st.Latency.Count, st.QueueWait.Count)
	}
	if st.Latency.Sum <= 0 {
		t.Fatalf("latency sum = %v, want > 0", st.Latency.Sum)
	}
	if st.P50 <= 0 || st.P99 < st.P50 {
		t.Fatalf("quantiles p50=%v p99=%v", st.P50, st.P99)
	}
	if st.WorkspaceBytes < 0 {
		t.Fatalf("workspace bytes = %d", st.WorkspaceBytes)
	}
}

// TestCancelDuringFinish cancels a job while its finish runs (a values
// job's chase runs there): finish receives the job's ctx, so it returns,
// Wait reports context.Canceled promptly, and Close leaves no dispatcher
// or worker goroutine behind.
func TestCancelDuringFinish(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewService(&ServiceConfig{Workers: 2, CacheBytes: -1})
	entered := make(chan struct{})
	req := request{build: func() (job, error) {
		g := sched.NewGraph()
		h := g.NewHandle(8, 0)
		g.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) {}, sched.RW(h))
		return graphJob(g, func(ctx context.Context) (*JobResult, error) {
			close(entered)
			<-ctx.Done()
			return nil, ctx.Err()
		}), nil
	}}
	ctx, cancel := context.WithCancel(context.Background())
	j, err := s.submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("finish never ran")
	}
	cancel()
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job cancelled in its finish did not end promptly")
	}
	if _, err := j.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked: the dispatcher is still inside finish")
	}
	if st := s.Stats(); st.JobsCancelled != 1 || st.JobsDone != 0 {
		t.Fatalf("stats: %+v, want 1 cancelled and none done", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
