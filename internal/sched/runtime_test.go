package sched

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
)

// seqGraph builds a chain of n tasks through one handle; each task
// appends its index to out (guarded by mu), so execution order within the
// job is observable.
func seqGraph(n int, mu *sync.Mutex, out *[]int) *Graph {
	g := NewGraph()
	h := g.NewHandle(8, 0)
	for i := 0; i < n; i++ {
		i := i
		g.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) {
			mu.Lock()
			*out = append(*out, i)
			mu.Unlock()
		}, RW(h))
	}
	return g
}

func TestRuntimeManyGraphsInterleave(t *testing.T) {
	rt := NewRuntime(4)
	defer rt.Close()

	const jobs, chain = 12, 20
	var mu sync.Mutex
	traces := make([][]int, jobs)
	handles := make([]*JobHandle, jobs)
	for j := 0; j < jobs; j++ {
		g := seqGraph(chain, &mu, &traces[j])
		h, err := rt.Submit(context.Background(), g)
		if err != nil {
			t.Fatalf("submit %d: %v", j, err)
		}
		handles[j] = h
	}
	for j, h := range handles {
		if err := h.Wait(); err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
	}
	for j, tr := range traces {
		if len(tr) != chain {
			t.Fatalf("job %d ran %d tasks, want %d", j, len(tr), chain)
		}
		for i, v := range tr {
			if v != i {
				t.Fatalf("job %d: chain order violated at %d: %v", j, i, tr)
			}
		}
	}
	if n := rt.InFlight(); n != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", n)
	}
}

// gatedGraph builds gate → chain: the first task blocks until release is
// closed, so a test can cancel mid-graph deterministically.
func gatedGraph(n int, release chan struct{}, executed *atomic.Int32) *Graph {
	g := NewGraph()
	h := g.NewHandle(8, 0)
	g.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) {
		<-release
		executed.Add(1)
	}, RW(h))
	for i := 1; i < n; i++ {
		g.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) {
			executed.Add(1)
		}, RW(h))
	}
	return g
}

func TestRuntimeSubmitCancelledCtx(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var executed atomic.Int32
	g := NewGraph()
	hd := g.NewHandle(8, 0)
	g.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) { executed.Add(1) }, RW(hd))
	h, err := rt.Submit(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if executed.Load() != 0 {
		t.Fatal("task ran despite pre-cancelled context")
	}
}

func TestRuntimeCloseThenSubmit(t *testing.T) {
	rt := NewRuntime(2)
	var mu sync.Mutex
	var tr []int
	h, err := rt.Submit(context.Background(), seqGraph(5, &mu, &tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if _, err := rt.Submit(context.Background(), seqGraph(1, &mu, &tr)); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("Submit after Close = %v, want ErrRuntimeClosed", err)
	}
}

// TestRuntimeNoGoroutineLeak submits, cancels and completes jobs, closes
// the pool, and checks the goroutine count returns to its baseline — the
// acceptance check that cancellation does not leak workers.
func TestRuntimeNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	rt := NewRuntime(4)
	var mu sync.Mutex
	traces := make([][]int, 8)
	for j := range traces {
		h, err := rt.Submit(context.Background(), seqGraph(10, &mu, &traces[j]))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	release := make(chan struct{})
	var executed atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	h, err := rt.Submit(ctx, gatedGraph(20, release, &executed))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for !h.Stopped() {
		runtime.Gosched()
	}
	close(release)
	if err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v", err)
	}
	rt.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRuntimeEmptyGraph(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Close()
	h, err := rt.Submit(context.Background(), NewGraph())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeFairShare checks that under a saturated single worker two
// jobs in flight take turns: neither runs more than stickySlack+1 pickups
// ahead of the other while both have work left.
func TestRuntimeFairShare(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Close()

	const n = 40
	var order []string
	var mu sync.Mutex
	mk := func(name string) *Graph {
		g := NewGraph()
		h := g.NewHandle(8, 0)
		for i := 0; i < n; i++ {
			g.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
			}, RW(h))
		}
		return g
	}
	// Stall the worker so both submissions land before execution starts.
	gate := make(chan struct{})
	stall := NewGraph()
	sh := stall.NewHandle(8, 0)
	stall.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) { <-gate }, RW(sh))
	hs, err := rt.Submit(context.Background(), stall)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*JobHandle
	for _, name := range []string{"a", "b"} {
		h, err := rt.Submit(context.Background(), mk(name))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, h)
	}
	close(gate)
	for _, h := range append(jobs, hs) {
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	count := map[string]int{}
	for i, s := range order {
		count[s]++
		if count["a"] == n || count["b"] == n {
			break
		}
		if d := count["a"] - count["b"]; d > stickySlack+1 || -d > stickySlack+1 {
			t.Fatalf("after %d pickups one job leads by %d (want ≤ %d): %v", i+1, d, stickySlack+1, order)
		}
	}
}

// TestRuntimeChainWakesNobody pins the wake-up rule: a completion that
// readies one successor leaves the sleepers asleep, because the finishing
// worker takes that task itself. Without the rule a chain hops between
// cores on every task and this count is in the thousands.
func TestRuntimeChainWakesNobody(t *testing.T) {
	const workers = 4
	rt := NewRuntime(workers)
	defer rt.Close()
	g := chainGraph(10_000)
	h, err := rt.Submit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	// At most the Submit's wake-up for the head of the chain, with slack
	// for a worker that had not gone to sleep yet.
	if st.Wakeups > workers {
		t.Fatalf("10 000-task chain issued %d wake-ups, want ≤ %d", st.Wakeups, workers)
	}
	if st.Ready != 0 {
		t.Fatalf("ready tasks after the job drained = %d, want 0", st.Ready)
	}
}

// TestRuntimeFanOutReachesAllWorkers is the other half of the rule: ready
// work beyond the finishing worker's own next task does wake sleepers.
// The four children rendezvous, so the job only finishes if four workers
// run them at the same time.
func TestRuntimeFanOutReachesAllWorkers(t *testing.T) {
	const workers = 4
	rt := NewRuntime(workers)
	defer rt.Close()
	g := NewGraph()
	root := g.NewHandle(8, 0)
	g.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) {}, RW(root))
	var rendezvous sync.WaitGroup
	rendezvous.Add(workers)
	for i := 0; i < workers; i++ {
		g.AddTask(kernels.UNMQRKind, 0, 1, 1, func(*nla.Workspace) {
			rendezvous.Done()
			rendezvous.Wait()
		}, R(root), RW(g.NewHandle(8, 0)))
	}
	h, err := rt.Submit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("fan-out never ran on all %d workers at once (stats %+v)", workers, rt.Stats())
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeStatsIdle checks that time asleep is counted: idle time is
// added when a sleeper wakes, so keep submitting one-task jobs until a
// worker has been caught asleep by one of them.
func TestRuntimeStatsIdle(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Close()
	deadline := time.Now().Add(10 * time.Second)
	for rt.Stats().Idle <= 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no idle time recorded: %+v", rt.Stats())
		}
		h, err := rt.Submit(context.Background(), chainGraph(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if st := rt.Stats(); st.Wakeups < 1 {
		t.Fatalf("idle time %v without a wake-up: %+v", st.Idle, st)
	}
}

// TestRuntimeDispatchNoAllocPerTask pins the loop's hot path with its
// counters in place: a job costs a handful of allocations, a task none,
// so a 2001-task chain allocates what a 1-task chain does. Stats itself
// allocates nothing either.
func TestRuntimeDispatchNoAllocPerTask(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Close()
	perJob := func(g *Graph) float64 {
		return testing.AllocsPerRun(20, func() {
			h, err := rt.Submit(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := perJob(chainGraph(1)), perJob(chainGraph(2001))
	if long > short {
		t.Fatalf("2001-task job allocates %v, 1-task job %v: dispatch allocates per task", long, short)
	}
	if allocs := testing.AllocsPerRun(100, func() { rt.Stats() }); allocs != 0 {
		t.Fatalf("Stats allocates %v allocs/op, want 0", allocs)
	}
}

func TestRunSequentialPanicRecovered(t *testing.T) {
	g := NewGraph()
	h := g.NewHandle(8, 0)
	g.AddTask(kernels.UNMQRKind, 0, 1, 1, func(*nla.Workspace) { panic("boom") }, RW(h))
	err := g.RunSequential()
	if err == nil || !strings.Contains(err.Error(), "UNMQR") {
		t.Fatalf("RunSequential = %v, want error naming the kernel", err)
	}
}

func TestRunSequentialCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := chainGraph(3)
	if err := g.RunSequentialCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSequentialCtx = %v, want context.Canceled", err)
	}
}
