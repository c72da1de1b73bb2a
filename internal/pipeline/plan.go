package pipeline

import (
	"context"
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

// Job is what, besides its values, shapes an input's GE2BND graph: a
// Local job's trees on shared memory, or a GridJob's on a node grid. Both
// are comparable; with the input's shape and whether the graph records
// its reflectors, a Job is the key of its templates (see Template).
type Job interface {
	// Spec describes the graph of an m×n (m ≥ n) input, without its data.
	Spec(m, n int) Spec
}

// Local is everything besides the matrix that shapes a shared-memory
// GE2BND graph.
type Local struct {
	NB      int
	RBidiag bool
	Tree    trees.Kind
	// Gamma and Cores parameterize the AUTO tree.
	Gamma, Cores int
	Gemm         nla.Blocking
}

// Spec configures the shared-memory trees.
func (j Local) Spec(m, n int) Spec {
	return Spec{
		Shape:   core.ShapeOf(m, n, j.NB),
		Config:  core.Config{Tree: j.Tree, Gamma: j.Gamma, Cores: j.Cores, Blocking: j.Gemm},
		RBidiag: j.RBidiag,
	}
}

// GridJob is everything besides the matrix that shapes an owner-compute
// GE2BND graph: the resolved options every rank of an SPMD run must
// agree on. The in-process Options.Distributed run, the cluster head and
// the cluster's peers all check out its template, so their graphs are
// identical by construction. The JSON form travels in the cluster's job
// announcement.
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

// Spec configures the paper's hierarchical distributed trees over the
// job's grid: the owner map and the trees derive from the job.
func (j GridJob) Spec(m, n int) Spec {
	sh := core.ShapeOf(m, n, j.NB)
	tc := dist.AutoDefaults(sh, j.Grid, j.WPN)
	tc.Gamma = j.Gamma
	cfg := tc.Configure()
	cfg.Blocking = j.Gemm
	return Spec{Shape: sh, Config: cfg, RBidiag: j.RBidiag}
}

// Plan is a built task graph plus the bookkeeping needed to extract its
// results after execution.
type Plan struct {
	Graph *sched.Graph
	// Tiles is the tile matrix holding the stage-1 band-bidiagonal result
	// (the square R-factor matrix under R-BIDIAG); nil in simulation-only
	// builds or stage-2-only plans.
	Tiles *tile.Matrix
	// UsedRBidiag reports whether the R-BIDIAG path was built.
	UsedRBidiag bool
	// Recorder holds the reflectors of a template that records them (see
	// Template); its stages point at the template's tiles and T factors.
	Recorder *core.Recorder

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
	data := spec.Data
	if spec.RBidiag {
		_, data = core.BuildRBidiag(g, spec.Shape, spec.Data, spec.Config)
	} else {
		core.BuildBidiag(g, spec.Shape, spec.Data, spec.Config)
	}
	return &Plan{
		Graph:       g,
		Tiles:       data,
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
	job     Job
	m, n    int
	records bool
}

type chaseKey struct{ n, ku, window int }

// templates holds each key's idle templates, newest last, where any
// goroutine finds what another returned (a sync.Pool hands an object back
// on the processor that put it there). Like a pool's, they are dropped
// after two GC cycles idle, age running once every cycle.
var templates struct {
	sync.Mutex
	idle, old map[any][]*Plan
}

func init() {
	age()
	nla.EveryGC(age)
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

// Template returns the GE2BND plan of job on a copy of a (m ≥ n): a
// pooled template of the key (job, m, n, records), or a fresh build on
// memory of its own. With records the plan's Recorder holds the
// reflectors, which the back-transform of an SVD replays.
func Template(job Job, a *nla.Matrix, records bool) *Plan {
	return template(geKey{job, a.Rows, a.Cols, records}, func(ar *nla.Arena) *Plan {
		spec := job.Spec(a.Rows, a.Cols)
		spec.Data = tile.NewIn(ar, a.Rows, a.Cols, spec.Shape.NB).Fill(a)
		if records {
			spec.Config.Recorder = &core.Recorder{Blocking: spec.Config.Blocking}
		}
		p := Build(spec)
		p.input, p.Recorder = spec.Data, spec.Config.Recorder
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
