package sched

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
)

// recorder collects the IDs of the tasks that ran.
type recorder struct {
	mu  sync.Mutex
	ids []int32
}

func (r *recorder) task(g *Graph, node int32, acc ...Access) *Task {
	id := int32(len(g.Tasks))
	return g.AddTask(kernels.GEQRTKind, node, 1, 1, func(*nla.Workspace) {
		r.mu.Lock()
		r.ids = append(r.ids, id)
		r.mu.Unlock()
	}, acc...)
}

func (r *recorder) ran() []int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := slices.Clone(r.ids)
	slices.Sort(out)
	return out
}

// waitFor fails the test when h does not finish within a few seconds.
func waitFor(t *testing.T, h *JobHandle) error {
	t.Helper()
	select {
	case <-h.Done():
		return h.Wait()
	case <-time.After(5 * time.Second):
		t.Fatal("owned job did not finish")
		return nil
	}
}

// TestOwnedJobDispatchesOnlyItsShare: rank 1 of 2 runs the tasks with
// Node % 2 == 1 and no other — neither a foreign root nor a foreign
// successor of an owned task — and calls its hook once per task it ran.
func TestOwnedJobDispatchesOnlyItsShare(t *testing.T) {
	var r recorder
	g := NewGraph()
	h1, h2, h3 := g.NewHandle(8, 0), g.NewHandle(8, 0), g.NewHandle(8, 0)
	r.task(g, 1, RW(h1)) // 0: owned root
	r.task(g, 0, R(h1))  // 1: foreign successor of 0
	r.task(g, 0, RW(h2)) // 2: foreign root
	r.task(g, 3, RW(h3)) // 3: owned (3 % 2 == 1)
	r.task(g, 1, R(h1))  // 4: owned successor of 0
	g.ComputeBottomLevels(WeightTime)

	rt := NewRuntime(2)
	defer rt.Close()
	var hooked atomic.Int32
	h, err := rt.SubmitOwned(context.Background(), g, 1, 2, 0, func(*Task) { hooked.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := waitFor(t, h); err != nil {
		t.Fatal(err)
	}
	if got, want := r.ran(), []int32{0, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("rank 1 ran tasks %v, want %v", got, want)
	}
	if h.Tasks() != 3 || hooked.Load() != 3 {
		t.Fatalf("Tasks() = %d, hook calls = %d, want 3 and 3", h.Tasks(), hooked.Load())
	}
}

// TestOwnedJobsShareOneGraph runs both shares of one graph at once, each
// on its own runtime, the hook of each releasing its task in the other —
// the way dist.Execute runs its ranks. Under -race this checks that no
// job touches a counter of the other's tasks.
func TestOwnedJobsShareOneGraph(t *testing.T) {
	var r recorder
	g := NewGraph()
	hs := []*Handle{g.NewHandle(8, 0), g.NewHandle(8, 0), g.NewHandle(8, 0)}
	for i := 0; i < 60; i++ {
		r.task(g, int32(i%2), RW(hs[i%3]), R(hs[(i+1)%3]))
	}
	g.ComputeBottomLevels(WeightTime)

	var jobs [2]*JobHandle
	var ready sync.WaitGroup
	ready.Add(1)
	for rank := range jobs {
		rt := NewRuntime(2)
		defer rt.Close()
		other := 1 - rank
		h, err := rt.SubmitOwned(context.Background(), g, rank, 2, 0, func(t *Task) {
			ready.Wait()
			jobs[other].Release(t)
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs[rank] = h
	}
	ready.Done()
	for _, h := range jobs {
		if err := waitFor(t, h); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]int32, len(g.Tasks))
	for i := range want {
		want[i] = int32(i)
	}
	if got := r.ran(); !slices.Equal(got, want) {
		t.Fatalf("the two shares ran tasks %v, want each of %d once", got, len(g.Tasks))
	}
}

// TestOwnedJobHookPrecedesSuccessors: a task's hook has returned before
// any successor of the task is dispatched, and Wait returns only after the
// last hook has returned.
func TestOwnedJobHookPrecedesSuccessors(t *testing.T) {
	g := NewGraph()
	h := g.NewHandle(8, 0)
	var hooked [5]atomic.Bool
	var early atomic.Int32
	// 0 → {1, 2, 3} → 4: a fan-out the second worker could pick up at
	// once, and a last task whose hook is the job's last.
	preds := [][]int{nil, {0}, {0}, {0}, {1, 2, 3}}
	for i, ps := range preds {
		acc := RW(h)
		if i >= 1 && i <= 3 {
			acc = R(h)
		}
		g.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) {
			for _, p := range ps {
				if !hooked[p].Load() {
					early.Add(1)
				}
			}
		}, acc)
	}
	g.ComputeBottomLevels(WeightTime)

	rt := NewRuntime(2)
	defer rt.Close()
	job, err := rt.SubmitOwned(context.Background(), g, 0, 1, 0, func(t *Task) {
		time.Sleep(5 * time.Millisecond)
		hooked[t.ID].Store(true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if !hooked[4].Load() {
		t.Fatal("Wait returned before the last hook did")
	}
	if n := early.Load(); n != 0 {
		t.Fatalf("%d successors ran before their predecessor's hook returned", n)
	}
}

// TestOwnedReleaseWakesIdlePool: with every worker asleep on an empty
// ready queue, a Release from a goroutine that is not a worker must wake
// one for the task it readies.
func TestOwnedReleaseWakesIdlePool(t *testing.T) {
	var r recorder
	g := NewGraph()
	h := g.NewHandle(8, 0)
	remote := r.task(g, 0, RW(h))
	r.task(g, 1, R(h))
	g.ComputeBottomLevels(WeightTime)

	rt := NewRuntime(2)
	defer rt.Close()
	job, err := rt.SubmitOwned(context.Background(), g, 1, 2, 0, func(*Task) {})
	if err != nil {
		t.Fatal(err)
	}
	for asleep := 0; asleep < 2; {
		runtime.Gosched()
		rt.mu.Lock()
		asleep = rt.sleeping
		rt.mu.Unlock()
	}
	if len(r.ran()) != 0 {
		t.Fatal("a task ran before its remote predecessor was released")
	}
	job.Release(remote)
	if err := waitFor(t, job); err != nil {
		t.Fatal(err)
	}
	if got := r.ran(); !slices.Equal(got, []int32{1}) {
		t.Fatalf("ran %v, want [1]", got)
	}
}

// TestOwnedJobWaitReportsCause: the cause given to the job's ctx is what
// Wait returns, whether the ctx ends while the job waits on a remote
// predecessor or before it is submitted.
func TestOwnedJobWaitReportsCause(t *testing.T) {
	g := NewGraph()
	h := g.NewHandle(8, 0)
	g.AddTask(kernels.GEQRTKind, 0, 1, 1, nil, RW(h))
	g.AddTask(kernels.GEQRTKind, 1, 1, 1, nil, R(h))
	g.ComputeBottomLevels(WeightTime)
	cause := errors.New("peer lost")

	rt := NewRuntime(1)
	defer rt.Close()
	ctx, cancel := context.WithCancelCause(context.Background())
	job, err := rt.SubmitOwned(ctx, g, 1, 2, 0, func(*Task) {})
	if err != nil {
		t.Fatal(err)
	}
	cancel(cause)
	if err := waitFor(t, job); !errors.Is(err, cause) {
		t.Fatalf("Wait = %v, want the ctx's cause %v", err, cause)
	}

	job, err = rt.SubmitOwned(ctx, g, 1, 2, 0, func(*Task) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitFor(t, job); !errors.Is(err, cause) {
		t.Fatalf("Wait after a pre-cancelled submit = %v, want %v", err, cause)
	}
}
