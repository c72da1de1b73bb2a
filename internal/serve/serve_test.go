package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
)

// sumRequest builds a 3-task chain that computes base + 1 + 2 + 3; builds
// is incremented per Build call so tests can count recomputations.
func sumRequest(base int64, builds *atomic.Int32) Request {
	return Request{
		Build: func() (*sched.Graph, func(context.Context) (any, error), error) {
			if builds != nil {
				builds.Add(1)
			}
			g := sched.NewGraph()
			acc := new(int64)
			*acc = base
			h := g.NewHandle(8, 0)
			for i := 1; i <= 3; i++ {
				v := int64(i)
				g.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) {
					*acc += v
				}, sched.RW(h))
			}
			return g, func(context.Context) (any, error) { return *acc, nil }, nil
		},
		Bytes: func(any) int64 { return 8 },
	}
}

// gateRequest builds a single task that blocks until release closes.
func gateRequest(release chan struct{}) Request {
	return Request{
		Build: func() (*sched.Graph, func(context.Context) (any, error), error) {
			g := sched.NewGraph()
			h := g.NewHandle(8, 0)
			g.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) {
				<-release
			}, sched.RW(h))
			return g, func(context.Context) (any, error) { return "ok", nil }, nil
		},
	}
}

func TestServiceDo(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	res, err := s.Do(context.Background(), sumRequest(10, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.(int64) != 16 {
		t.Fatalf("Do = %v, want 16", res.Value)
	}
	st := s.Stats()
	if st.JobsDone != 1 || st.InFlight != 0 {
		t.Fatalf("stats after one job: %+v", st)
	}
}

func TestBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, MaxInFlight: 1, QueueDepth: 1, CacheBytes: -1})
	defer s.Close()

	release := make(chan struct{})
	blocker, err := s.Submit(context.Background(), gateRequest(release))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the single dispatcher has picked the blocker up, so the
	// next submit truly sits in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(context.Background(), sumRequest(0, nil))
	if err != nil {
		t.Fatalf("queue slot should be free: %v", err)
	}
	if _, err := s.Submit(context.Background(), sumRequest(0, nil)); !errors.Is(err, ErrOverloaded) {
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
	s := New(Config{Workers: 1})
	defer s.Close()
	var builds atomic.Int32
	req := sumRequest(5, &builds)
	req.Key = "sum-5"
	r1, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit || !r2.CacheHit {
		t.Fatalf("cache hits: first %v second %v, want false/true", r1.CacheHit, r2.CacheHit)
	}
	if r1.Value.(int64) != 11 || r2.Value.(int64) != 11 {
		t.Fatalf("values %v, %v, want 11", r1.Value, r2.Value)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("Build ran %d times, want 1", n)
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheEntries != 1 {
		t.Fatalf("cache stats: %+v", st)
	}
}

func TestCacheEviction(t *testing.T) {
	// Budget fits exactly one entry (payload 8 + overhead 128).
	s := New(Config{Workers: 1, CacheBytes: 200})
	defer s.Close()
	for i := 0; i < 3; i++ {
		req := sumRequest(int64(i), nil)
		req.Key = fmt.Sprintf("k%d", i)
		if _, err := s.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CacheEntries != 1 {
		t.Fatalf("cache entries = %d, want 1 (LRU under a one-entry budget)", st.CacheEntries)
	}
	// The survivor is the most recent key.
	req := sumRequest(2, nil)
	req.Key = "k2"
	res, err := s.Do(context.Background(), req)
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
	s := New(Config{Workers: 2, CacheBytes: -1})
	defer s.Close()

	bad := Request{
		Build: func() (*sched.Graph, func(context.Context) (any, error), error) {
			g := sched.NewGraph()
			h := g.NewHandle(8, 0)
			g.AddTask(kernels.TSQRTKind, 0, 1, 1, func(*nla.Workspace) {
				panic("deliberate")
			}, sched.RW(h))
			return g, func(context.Context) (any, error) { return nil, nil }, nil
		},
	}
	var jobs []*Job
	var badJob *Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(context.Background(), sumRequest(int64(10*i), nil))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		if i == 3 {
			if badJob, err = s.Submit(context.Background(), bad); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("healthy job %d failed: %v", i, err)
		}
		if want := int64(10*i + 6); res.Value.(int64) != want {
			t.Fatalf("job %d = %v, want %d", i, res.Value, want)
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
	s := New(Config{Workers: 1, MaxInFlight: 1, QueueDepth: 4, CacheBytes: -1})
	defer s.Close()
	release := make(chan struct{})
	blocker, err := s.Submit(context.Background(), gateRequest(release))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	queued, err := s.Submit(ctx, sumRequest(0, nil))
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

func TestSubmitAfterClose(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Close()
	if _, err := s.Submit(context.Background(), sumRequest(0, nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestManyConcurrentJobs(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 128, CacheBytes: -1})
	defer s.Close()
	const n = 64
	var wg sync.WaitGroup
	vals := make([]int64, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Do(context.Background(), sumRequest(int64(i), nil))
			if err != nil {
				errs[i] = err
				return
			}
			vals[i] = res.Value.(int64)
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if vals[i] != int64(i+6) {
			t.Fatalf("job %d = %d, want %d", i, vals[i], i+6)
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
	s := New(Config{Workers: 2})
	defer s.Close()
	var builds atomic.Int32
	req := sumRequest(7, &builds)
	req.Key = "sum-7"
	req.Trace = true

	// Seed the cache through an untraced request with the same key.
	plain := sumRequest(7, &builds)
	plain.Key = "sum-7"
	if _, err := s.Do(context.Background(), plain); err != nil {
		t.Fatal(err)
	}

	res, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("traced job must bypass the cache")
	}
	if res.Value.(int64) != 13 {
		t.Fatalf("traced value = %v, want 13", res.Value)
	}
	if len(res.Trace) != 3 {
		t.Fatalf("trace has %d events, want 3", len(res.Trace))
	}
	for i, e := range res.Trace {
		if e.Kind != kernels.GEQRTKind || e.End < e.Start {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("Build ran %d times, want 2 (trace bypasses cache)", n)
	}
}

func TestStatsHistograms(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for i := 0; i < 5; i++ {
		if _, err := s.Do(context.Background(), sumRequest(int64(i), nil)); err != nil {
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
	s := New(Config{Workers: 2, CacheBytes: -1})
	entered := make(chan struct{})
	req := Request{
		Build: func() (*sched.Graph, func(context.Context) (any, error), error) {
			g := sched.NewGraph()
			h := g.NewHandle(8, 0)
			g.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) {}, sched.RW(h))
			return g, func(ctx context.Context) (any, error) {
				close(entered)
				<-ctx.Done()
				return nil, ctx.Err()
			}, nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	j, err := s.Submit(ctx, req)
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
