package sched

import (
	"context"
	"fmt"

	"github.com/tiled-la/bidiag/internal/nla"
)

// RunSafe executes the task's kernel on the given workspace, converting a
// kernel panic into an error naming the kernel kind. Every executor —
// sequential, pool, shared runtime, owner-compute — runs tasks through it,
// so one bad tile fails its own graph instead of the whole process.
func (t *Task) RunSafe(ws *nla.Workspace) (err error) {
	if t.Run == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: %s kernel %s panicked: %v", t.Kind, t.Name(), r)
		}
	}()
	t.Run(ws)
	return nil
}

// RunSequential executes every task in submission order, which is a valid
// schedule by construction. It is the numerical reference all parallel
// executions are compared against. A panicking kernel is recovered and
// returned as an error; the remaining tasks do not run.
func (g *Graph) RunSequential() error {
	return g.RunSequentialCtx(context.Background())
}

// RunSequentialCtx is RunSequential under a context: when ctx is cancelled
// no further tasks start and context.Cause(ctx) is returned.
func (g *Graph) RunSequentialCtx(ctx context.Context) error {
	ws := g.NewWorkspace()
	for _, t := range g.Tasks {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		if err := g.RunTask(t, ws, 0); err != nil {
			return err
		}
	}
	return nil
}

// RunParallel executes the graph on `workers` goroutines, dispatching
// ready tasks in order of decreasing bottom-level priority (ties broken by
// submission order). The data dependencies guarantee that the
// floating-point result is identical to RunSequential: every pair of
// conflicting accesses to a handle is ordered by an edge, so each datum
// sees the same sequence of kernels regardless of the schedule.
//
// A panicking kernel fails the run — dispatch stops, in-flight tasks
// finish, and the first panic is returned as an error — instead of
// killing the process.
func (g *Graph) RunParallel(workers int) error {
	return g.RunParallelCtx(context.Background(), workers)
}

// RunParallelCtx is RunParallel under a context: when ctx is cancelled
// dispatch stops, in-flight tasks finish, and context.Cause(ctx) is
// returned. The run is a one-job Runtime, so the one-shot pool and the
// serving pool are the same worker loop.
func (g *Graph) RunParallelCtx(ctx context.Context, workers int) error {
	rt := NewRuntime(workers)
	defer rt.Close()
	h, err := rt.Submit(ctx, g)
	if err != nil {
		return err
	}
	return h.Wait()
}

// WeightTime values a task at its Table I weight; it is the default
// duration function for critical-path analysis.
func WeightTime(t *Task) float64 { return t.Weight }

// FlopsTime values a task at its modeled flop count.
func FlopsTime(t *Task) float64 { return t.Flops }

// ComputeBottomLevels assigns each task its bottom level — the length of
// the longest downstream path including itself — under the given duration
// function, and returns the overall maximum, i.e. the critical path of the
// DAG on unbounded resources.
func (g *Graph) ComputeBottomLevels(timeOf func(*Task) float64) float64 {
	cp := 0.0
	for i := len(g.Tasks) - 1; i >= 0; i-- {
		t := g.Tasks[i]
		mx := 0.0
		for _, s := range t.succs {
			if s.prio > mx {
				mx = s.prio
			}
		}
		t.prio = mx + timeOf(t)
		if t.prio > cp {
			cp = t.prio
		}
	}
	return cp
}

// CriticalPath returns the longest weighted path through the DAG, the
// execution time on unbounded resources with zero communication cost.
// This is the quantity tabulated in Section IV of the paper.
func (g *Graph) CriticalPath(timeOf func(*Task) float64) float64 {
	return g.ComputeBottomLevels(timeOf)
}

// SimResult reports a virtual-time simulation.
type SimResult struct {
	Makespan    float64
	BusyTime    float64 // Σ task durations actually scheduled
	Utilization float64 // BusyTime / (workers × Makespan)
	Tasks       int
}

// SimulateFixed performs event-driven list scheduling of the DAG on
// `workers` identical virtual cores: whenever a core is free, the ready
// task with the greatest bottom-level priority starts. It returns the
// makespan in the units of timeOf. With workers → ∞ the makespan equals
// CriticalPath. It is SimulateDistributed on one node.
func (g *Graph) SimulateFixed(workers int, timeOf func(*Task) float64) SimResult {
	return g.simulateFixed(workers, timeOf, nil)
}

// simulateFixed runs the list scheduler on one node of `workers` cores.
func (g *Graph) simulateFixed(workers int, timeOf func(*Task) float64, start func(t *Task, worker int, at, d float64)) SimResult {
	res, done := g.listSchedule(DistConfig{Nodes: 1, WorkersPerNode: workers, TimeOf: timeOf}, start)
	return SimResult{Makespan: res.Makespan, BusyTime: res.BusyTime, Utilization: res.Utilization, Tasks: done}
}

// readyHeap is the ready queue of the worker loop and of the list scheduler:
// a max-heap (container/heap) on (prio, -ID) — higher bottom level first,
// earlier submission breaking ties for determinism.
type readyHeap []*Task

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].ID < h[j].ID
}
func (h readyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x any)   { *h = append(*h, x.(*Task)) }
func (h *readyHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
