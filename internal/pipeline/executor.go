package pipeline

import (
	"context"

	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/sched"
)

// Executor runs a task graph to completion. The four implementations
// here — Sequential, Pool, OwnerCompute, Shared — and the cluster head's
// per-job mesh executor (cluster.Job) are the only engine dispatch in the
// library: every public entry point and every service job builds a Plan
// and hands its graph to one of these.
type Executor interface {
	// Name identifies the engine in reports and traces.
	Name() string
	// Execute runs the whole graph and reports on the execution. The
	// floating-point result must be bitwise-identical to Sequential. A
	// cancelled ctx stops the execution and returns context.Cause(ctx); a
	// panicking kernel is recovered and returned as an error naming the
	// kernel kind — one bad tile fails the call, not the process.
	Execute(ctx context.Context, g *sched.Graph) (*Report, error)
}

// Report summarizes one plan execution.
type Report struct {
	// Executor is the engine that ran.
	Executor string
	// Tasks is the number of tasks executed.
	Tasks int
	// Dist carries the measured communication statistics of an
	// OwnerCompute run (nil otherwise), plus the grid that ran.
	Dist               *dist.Result
	GridRows, GridCols int
}

// Sequential executes tasks in submission order: the numerical reference
// every parallel engine is compared against.
type Sequential struct{}

// Name implements Executor.
func (Sequential) Name() string { return "sequential" }

// Execute implements Executor.
func (Sequential) Execute(ctx context.Context, g *sched.Graph) (*Report, error) {
	if err := g.RunSequentialCtx(ctx); err != nil {
		return nil, err
	}
	return &Report{Executor: "sequential", Tasks: len(g.Tasks)}, nil
}

// Pool executes the graph on a private shared-memory worker pool — a
// sched.Runtime that lives for this one graph — with bottom-level
// priority scheduling. Workers ≤ 1 degenerates to the sequential order
// (same result either way).
type Pool struct {
	Workers int
}

// Name implements Executor.
func (p Pool) Name() string { return "pool" }

// Execute implements Executor.
func (p Pool) Execute(ctx context.Context, g *sched.Graph) (*Report, error) {
	var err error
	if p.Workers > 1 {
		err = g.RunParallelCtx(ctx, p.Workers)
	} else {
		err = g.RunSequentialCtx(ctx)
	}
	if err != nil {
		return nil, err
	}
	return &Report{Executor: "pool", Tasks: len(g.Tasks)}, nil
}

// Shared executes the graph on a sched.Runtime the caller owns instead of
// a private pool: the graph becomes one more in-flight job whose tasks
// interleave with every other job's on the shared workers. A
// bidiag.Service runs every pool graph on its runtime through it, and a
// one-shot call runs all its graphs on the one runtime it starts.
type Shared struct {
	Runtime *sched.Runtime
}

// Name implements Executor.
func (Shared) Name() string { return "shared" }

// Execute implements Executor.
func (s Shared) Execute(ctx context.Context, g *sched.Graph) (*Report, error) {
	h, err := s.Runtime.Submit(ctx, g)
	if err != nil {
		return nil, err
	}
	if err := h.Wait(); err != nil {
		return nil, err
	}
	return &Report{Executor: "shared", Tasks: len(g.Tasks)}, nil
}

// OwnerCompute executes the graph on a grid of in-process
// distributed-memory nodes: every task runs on the node owning its
// output tile and cross-node data dependencies travel as explicit
// messages (dist.ExecuteCtx).
type OwnerCompute struct {
	Grid           dist.Grid
	WorkersPerNode int
	// Transport overrides the in-process channel transport (nil selects
	// dist.NewChanTransport).
	Transport dist.Transport
}

// Name implements Executor.
func (OwnerCompute) Name() string { return "owner-compute" }

// Execute implements Executor.
func (d OwnerCompute) Execute(ctx context.Context, g *sched.Graph) (*Report, error) {
	res, err := dist.ExecuteCtx(ctx, g, dist.Options{Grid: d.Grid, WorkersPerNode: d.WorkersPerNode, Transport: d.Transport})
	if err != nil {
		return nil, err
	}
	return &Report{
		Executor: "owner-compute",
		Tasks:    res.TasksRun,
		Dist:     res,
		GridRows: d.Grid.R,
		GridCols: d.Grid.C,
	}, nil
}
