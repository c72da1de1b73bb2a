package pipeline

import (
	"context"
	"runtime"
	"sync"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
	"github.com/tiled-la/bidiag/internal/trees"
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
func (j GridJob) Spec(a *nla.Matrix) Spec { return j.SpecIn(nil, a) }

// SpecIn is Spec with the tiles, and so the whole build's working memory,
// carved from ar (see tile.NewIn).
func (j GridJob) SpecIn(ar *nla.Arena, a *nla.Matrix) Spec {
	sh := core.ShapeOf(a.Rows, a.Cols, j.NB)
	tc := dist.AutoDefaults(sh, j.Grid, j.WPN)
	tc.Gamma = j.Gamma
	cfg := tc.Configure()
	cfg.Blocking = j.Gemm
	return Spec{Shape: sh, Data: tile.FromDenseIn(ar, a, j.NB), Config: cfg, RBidiag: j.RBidiag}
}

// Plan is a built task graph plus the bookkeeping needed to extract its
// results after execution.
type Plan struct {
	Graph *sched.Graph
	// Tiles is the tile matrix holding the stage-1 band-bidiagonal result
	// (the square R-factor matrix under R-BIDIAG); nil in simulation-only
	// builds or stage-2-only plans.
	Tiles *tile.Matrix
	// Shape is the geometry of Tiles.
	Shape core.Shape
	// UsedRBidiag reports whether the R-BIDIAG path was built.
	UsedRBidiag bool

	finish func() *band.Matrix

	// A template's key and memory, and its GE2BND input tiles or the
	// refill of its band.
	key    any
	arena  *nla.Arena
	input  *tile.Matrix
	refill func(fill func(*band.Matrix))
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
	refill, finish := band.BuildReduceGraph(g, b, window)
	return &Plan{
		Graph:  g,
		finish: finish,
		refill: refill,
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
// promptly (in-flight tasks finish) and returns context.Cause(ctx).
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

// The keys of the templates: what shapes a GE2BND graph and a BND2BD one.
type geKey struct {
	sh           core.Shape
	rbidiag      bool
	tree         trees.Kind
	gamma, cores int
	blocking     nla.Blocking
}

type chaseKey struct{ n, ku, window int }

// templates holds each key's idle templates, newest last, where any
// goroutine finds what another returned (a sync.Pool hands an object back
// on the processor that put it there). Like a pool's, they are dropped
// after two GC cycles idle, gcTick's finalizer ageing them every cycle.
var templates struct {
	sync.Mutex
	idle, old map[any][]*Plan
}

type gcTick struct{ _ [16]byte }

func init() { ageTemplates(new(gcTick)) }

func ageTemplates(t *gcTick) {
	age()
	runtime.SetFinalizer(t, ageTemplates)
}

// age releases the templates idle for two cycles to nla's pools, where
// the next job's arena or template finds their memory.
func age() {
	templates.Lock()
	old := templates.old
	templates.idle, templates.old = map[any][]*Plan{}, templates.idle
	templates.Unlock()
	for _, l := range old {
		for _, p := range l {
			p.arena.Release()
		}
	}
}

// Return pools a template again (any other plan ignores it): call it only
// once the job that ran it has succeeded and nothing reads it any more.
func (p *Plan) Return() {
	if p.key != nil {
		templates.Lock()
		templates.idle[p.key] = append(templates.idle[p.key], p)
		templates.Unlock()
	}
}

// Template returns the GE2BND plan of spec on a copy of a (m ≥ n): a
// pooled template, or a fresh build on memory of its own. spec.Config
// must carry no tree override, owner map or recorder.
func Template(spec Spec, a *nla.Matrix) *Plan {
	c := spec.Config
	return template(geKey{spec.Shape, spec.RBidiag, c.Tree, c.Gamma, c.Cores, c.Blocking}, func(ar *nla.Arena) *Plan {
		spec.Data = tile.FromDenseIn(ar, a, spec.Shape.NB)
		p := Build(spec)
		p.input = spec.Data
		return p
	}, func(p *Plan) { p.input.Fill(a) })
}

// Chase is Template for the BND2BD plan of an n×n band with ku
// superdiagonals that fill writes whole.
func Chase(n, ku, window int, fill func(*band.Matrix)) *Plan {
	return template(chaseKey{n, ku, window}, func(ar *nla.Arena) *Plan {
		b := band.NewIn(ar, n, ku)
		fill(b)
		return BuildBND2BD(b, window)
	}, func(p *Plan) { p.refill(fill) })
}

// template takes the newest idle plan of key, NaN-filled in a poison
// build and with no tracer or meter, and arms it with the job's input, or
// builds one on it in a fresh arena.
func template(key any, build func(*nla.Arena) *Plan, arm func(*Plan)) *Plan {
	var p *Plan
	templates.Lock()
	for _, idle := range [2]map[any][]*Plan{templates.idle, templates.old} {
		if l := idle[key]; p == nil && len(l) > 0 {
			p, idle[key] = l[len(l)-1], l[:len(l)-1]
		}
	}
	templates.Unlock()
	if p == nil {
		ar := new(nla.Arena)
		p = build(ar)
		p.key, p.arena = key, ar
		return p
	}
	p.arena.Poison()
	p.Graph.Tracer, p.Graph.Meter = nil, nil
	arm(p)
	return p
}
