package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/obs"
)

// tracedGraph builds a graph of n real (counting) tasks: a fan of short
// chains so parallel executors use several workers.
func tracedGraph(n int, ran *atomic.Int64) *Graph {
	g := NewGraph()
	var hs []*Handle
	for i := 0; i < 4; i++ {
		hs = append(hs, g.NewHandle(8, 0))
	}
	for i := 0; i < n; i++ {
		t := g.AddTask(kernels.GEQRTKind, 0, 1, 1e6, func(*nla.Workspace) { ran.Add(1) }, RW(hs[i%len(hs)]))
		t.SetCoords(i, 0, i/len(hs))
	}
	return g
}

func checkTrace(t *testing.T, tr *obs.Tracer, n int, wantWorkers int) {
	t.Helper()
	evs := tr.Events()
	if len(evs) != n {
		t.Fatalf("trace has %d events, want %d (dropped %d)", len(evs), n, tr.Dropped())
	}
	seen := map[int32]bool{}
	workers := map[int32]bool{}
	for _, e := range evs {
		if e.End < e.Start {
			t.Fatalf("event %d ends before it starts: %+v", e.ID, e)
		}
		if e.Kind != kernels.GEQRTKind || e.Flops != 1e6 {
			t.Fatalf("event lost identity: %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("task %d traced twice", e.ID)
		}
		seen[e.ID] = true
		workers[e.Worker] = true
	}
	if wantWorkers > 0 && len(workers) > wantWorkers {
		t.Fatalf("%d distinct workers traced, want at most %d", len(workers), wantWorkers)
	}
}

func TestTracingSequential(t *testing.T) {
	var ran atomic.Int64
	g := tracedGraph(20, &ran)
	tr := obs.NewTracer(1, len(g.Tasks))
	g.Tracer = tr
	if err := g.RunSequential(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 20 {
		t.Fatalf("ran %d tasks, want 20", ran.Load())
	}
	checkTrace(t, tr, 20, 1)
}

func TestTracingParallelPool(t *testing.T) {
	var ran atomic.Int64
	g := tracedGraph(64, &ran)
	tr := obs.NewTracer(4, len(g.Tasks))
	g.Tracer = tr
	if err := g.RunParallel(4); err != nil {
		t.Fatal(err)
	}
	checkTrace(t, tr, 64, 4)
}

func TestTracingRuntime(t *testing.T) {
	var ran atomic.Int64
	g := tracedGraph(64, &ran)
	rt := NewRuntime(4)
	defer rt.Close()
	tr := obs.NewTracer(rt.Workers(), len(g.Tasks))
	g.Tracer = tr
	h, err := rt.Submit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	checkTrace(t, tr, 64, 4)
	if rt.WorkspaceBytes() < 0 {
		t.Fatalf("WorkspaceBytes = %d", rt.WorkspaceBytes())
	}
}

// TestTracingRuntimeConcurrentCollection exercises the advertised
// guarantee under -race: collectors may call Events() while the shared
// pool's workers are still recording into the rings, across several
// graphs in flight at once.
func TestTracingRuntimeConcurrentCollection(t *testing.T) {
	rt := NewRuntime(4)
	defer rt.Close()

	const jobs = 6
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ran atomic.Int64
			g := tracedGraph(128, &ran)
			tr := obs.NewTracer(rt.Workers(), len(g.Tasks))
			g.Tracer = tr
			h, err := rt.Submit(context.Background(), g)
			if err != nil {
				t.Error(err)
				return
			}
			// Collect live while the job runs.
			stop := make(chan struct{})
			go func() {
				defer close(stop)
				for {
					select {
					case <-h.Done():
						return
					default:
					}
					for _, e := range tr.Events() {
						if e.End < e.Start {
							t.Errorf("torn event: %+v", e)
							return
						}
					}
				}
			}()
			if err := h.Wait(); err != nil {
				t.Error(err)
			}
			<-stop
			if got := len(tr.Events()); got != 128 {
				t.Errorf("final trace has %d events, want 128", got)
			}
		}()
	}
	wg.Wait()
}

// TestTracingDisabledNoAlloc pins the disabled-tracing fast path: with a
// nil tracer, dispatching a warm task through RunTask must not allocate.
func TestTracingDisabledNoAlloc(t *testing.T) {
	var ran atomic.Int64
	g := tracedGraph(1, &ran)
	task := g.Tasks[0]
	ws := g.NewWorkspace()
	if err := g.RunTask(task, ws, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := g.RunTask(task, ws, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RunTask with nil tracer allocates %v allocs/op, want 0", allocs)
	}
}

// TestTracingEnabledNoAlloc pins the enabled path too: recording into a
// preallocated ring must not allocate either.
func TestTracingEnabledNoAlloc(t *testing.T) {
	var ran atomic.Int64
	g := tracedGraph(1, &ran)
	g.Tracer = obs.NewTracer(1, 1<<16)
	task := g.Tasks[0]
	ws := g.NewWorkspace()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := g.RunTask(task, ws, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RunTask with tracer allocates %v allocs/op, want 0", allocs)
	}
}
