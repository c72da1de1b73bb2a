package pipeline

import (
	"context"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
)

// Spec describes the GE2BND plan to build. Data may be nil for
// simulation-only builds (the graph then carries weights and dependences
// but no kernels).
type Spec struct {
	// Shape is the input's tile geometry (M ≥ N; callers transpose first).
	Shape core.Shape
	// Data is the tiled input, consumed in place; nil builds the DAG for
	// analysis or simulation only.
	Data *tile.Matrix
	// Config selects the reduction trees, owner mapping, recorder and GEMM
	// blocking of the GE2BND stage.
	Config core.Config
	// RBidiag selects R-BIDIAG (QR first) instead of direct BIDIAG.
	RBidiag bool
	// Window is read by nothing in the library: the chase is BuildBND2BD's,
	// which takes its cut width as an argument. It stays only because the
	// end-to-end benchmark's stage mirror sets it; the benchmark-only
	// change that deletes that mirror removes it.
	Window int
}

// GridJob is everything besides the matrix that shapes an owner-compute
// GE2BND graph: the resolved options every rank of an SPMD run must
// agree on. Its Spec method is the one place that graph is described —
// the in-process Options.Distributed run, the cluster head and the
// cluster's peers all build from it, so their graphs are identical by
// construction. The JSON form travels in the cluster's job announcement.
type GridJob struct {
	NB      int  `json:"nb"`
	RBidiag bool `json:"rbidiag,omitempty"`
	// Grid is the process grid; WPN the workers every node runs (the AUTO
	// group sizes derive from it, so it is part of the graph, not a local
	// tuning knob); Gamma the AUTO tree's parallelism multiplier.
	Grid  dist.Grid    `json:"grid"`
	WPN   int          `json:"wpn"`
	Gamma int          `json:"gamma,omitempty"`
	Gemm  nla.Blocking `json:"gemm"`
}

// Spec tiles a (m ≥ n) and configures the paper's hierarchical
// distributed trees over the job's grid.
func (j GridJob) Spec(a *nla.Matrix) Spec {
	sh := core.ShapeOf(a.Rows, a.Cols, j.NB)
	tc := dist.AutoDefaults(sh, j.Grid, j.WPN)
	tc.Gamma = j.Gamma
	cfg := tc.Configure()
	cfg.Blocking = j.Gemm
	return Spec{Shape: sh, Data: tile.FromDense(a, j.NB), Config: cfg, RBidiag: j.RBidiag}
}

// Stage reports one logical stage of a built plan.
type Stage struct {
	Name  string
	Tasks int
}

// Plan is a built task graph plus the bookkeeping needed to extract its
// results after execution.
type Plan struct {
	Graph *sched.Graph
	// Stages lists the logical stages in submission order; their task
	// counts sum to the number of tasks in Graph.
	Stages []Stage
	// Tiles is the tile matrix holding the stage-1 band-bidiagonal result
	// (the square R-factor matrix under R-BIDIAG); nil in simulation-only
	// builds or stage-2-only plans.
	Tiles *tile.Matrix
	// Shape is the geometry of Tiles.
	Shape core.Shape
	// UsedRBidiag reports whether the R-BIDIAG path was built.
	UsedRBidiag bool

	finish func() *band.Matrix
}

// Build constructs the GE2BND stage's task graph; the caller extracts the
// band from Tiles once it has run and chases it with BuildBND2BD.
func Build(spec Spec) *Plan {
	g := sched.NewGraph()
	rsh, data := spec.Shape, spec.Data
	if spec.RBidiag {
		rsh, data = core.BuildRBidiag(g, spec.Shape, spec.Data, spec.Config)
	} else {
		core.BuildBidiag(g, spec.Shape, spec.Data, spec.Config)
	}
	return &Plan{
		Graph:       g,
		Stages:      []Stage{{Name: "GE2BND", Tasks: len(g.Tasks)}},
		Tiles:       data,
		Shape:       rsh,
		UsedRBidiag: spec.RBidiag,
	}
}

// BuildBND2BD returns a stage-2-only plan: the task-graph bulge-chase
// reduction of an existing band matrix (window ≤ 0: derived granularity).
// The input is not modified.
func BuildBND2BD(b *band.Matrix, window int) *Plan {
	g := sched.NewGraph()
	finish := band.BuildReduceGraph(g, b, window)
	return &Plan{
		Graph:  g,
		Stages: []Stage{{Name: "BND2BD", Tasks: len(g.Tasks)}},
		finish: finish,
	}
}

// Run executes the plan's graph on the given executor and returns its
// report. The numerical outcome is independent of the executor. A
// kernel panic during execution is recovered and returned as an error
// naming the kernel kind.
func Run(p *Plan, ex Executor) (*Report, error) {
	return RunCtx(context.Background(), p, ex)
}

// RunCtx is Run under a context: a cancelled ctx stops the execution
// promptly (in-flight tasks finish) and returns ctx.Err().
func RunCtx(ctx context.Context, p *Plan, ex Executor) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return ex.Execute(ctx, p.Graph)
}

// Bidiagonal returns the reduced bidiagonal matrix of a BuildBND2BD plan.
// Valid only after the plan has been executed; it panics on a GE2BND
// plan.
func (p *Plan) Bidiagonal() *band.Matrix {
	if p.finish == nil {
		panic("pipeline: plan has no BND2BD stage")
	}
	return p.finish()
}
