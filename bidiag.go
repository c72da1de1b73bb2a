// Package bidiag provides parallel tiled bidiagonalization and singular
// value computation, a Go implementation of the algorithms of Faverge,
// Langou, Robert and Dongarra, "Bidiagonalization and R-Bidiagonalization:
// Parallel Tiled Algorithms, Critical Paths and Distributed-Memory
// Implementation" (IPDPS 2017).
//
// The package reduces a dense m×n matrix (m ≥ n) to band-bidiagonal form
// with tiled orthogonal transformations (GE2BND), optionally preceded by a
// QR factorization (R-bidiagonalization) for tall-skinny matrices, then to
// bidiagonal form by bulge chasing (BND2BD), and finally to singular
// values by dqds, the shifted differential qd algorithm (BD2VAL):
//
//	sv, err := bidiag.SingularValues(a, nil)          // defaults
//
//	opts := &bidiag.Options{Tree: bidiag.Greedy, NB: 64, Workers: 8}
//	sv, err = bidiag.SingularValues(a, opts)
//
// Every QR/LQ panel reduction is driven by a configurable reduction tree
// (FlatTS, FlatTT, Greedy, or the adaptive Auto tree of the paper), and
// both reduction stages execute as task graphs on the same data-flow
// runtime, one after the other: GE2BND as tiled QR/LQ kernels, then
// BND2BD as caravans of blocked Householder bulge-chase sweeps over the
// band GE2BND leaves, pipelined across Options.Workers once the band is
// long enough for that to pay. Every values call — one-shot, served on a pool
// or served on a mesh — runs these same steps. All engine dispatch —
// sequential order, the shared-memory pool, the distributed owner-compute
// executor — lives in a single pipeline.Executor layer that every public
// entry point routes through.
//
// Setting Options.Distributed executes the reduction on a grid of
// in-process distributed-memory nodes instead: tiles are distributed 2D
// block-cyclically, every QR/LQ panel uses the paper's hierarchical
// (local × high-level) reduction trees, each task runs on the node owning
// its output tile, and cross-node data dependencies are satisfied by
// explicit messages whose count and volume are reported back:
//
//	opts := &bidiag.Options{Distributed: &bidiag.DistOptions{Nodes: 4}}
//	b, _ := bidiag.GE2BND(a, opts)
//	fmt.Println(b.Dist.CommVolume)
//
// Distributed runs are deterministic — repeating the same configuration
// is bitwise-reproducible regardless of how the node pools interleave —
// and their singular values agree with the shared-memory path to
// rounding. (The band factor itself may differ in signs: the distributed
// trees are a different, equally valid, elimination order.)
//
// For serving many concurrent reductions, Service multiplexes jobs over
// ONE shared elastic worker pool — every job one task graph among many —
// with bounded admission, a content-addressed result cache, per-job
// cancellation and panic isolation (see NewService and the README
// "Serving" section); cmd/bidiagd exposes it over HTTP. The one-shot
// entry points gain context-aware variants (SingularValuesCtx, SVDCtx)
// that stop scheduling and return context.Cause(ctx) on cancellation.
//
// Concurrency contract: every exported function and type in this
// package is safe for concurrent use, with two caveats. A Dense must
// not be mutated while a call or service job is reading it, and values
// returned from a Service may be cache-shared between callers — treat
// results as immutable. Kernel panics never take down the process: they
// surface as errors from the call (or job) that owns them, naming the
// kernel kind.
package bidiag

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/bdsqr"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
	"github.com/tiled-la/bidiag/internal/trees"
)

// Tree selects the reduction tree used for every QR and LQ panel.
type Tree int

const (
	// Auto is the adaptive tree of the paper's Section V: FLATTS groups
	// sized to keep every core busy, chained by a GREEDY tree. It is the
	// recommended default ("AUTO outperforms its competitors in almost
	// every test case").
	Auto Tree = iota
	// FlatTS eliminates each panel sequentially with the most efficient
	// (TS) kernels: best asymptotic kernel throughput, least parallelism.
	FlatTS
	// FlatTT is the flat tree with TT kernels: more update parallelism at
	// lower kernel efficiency.
	FlatTT
	// Greedy reduces each panel by a binomial tree in ⌈log₂⌉ rounds, the
	// minimum-depth reduction.
	Greedy
)

func (t Tree) String() string {
	switch t {
	case Auto:
		return "Auto"
	case FlatTS:
		return "FlatTS"
	case FlatTT:
		return "FlatTT"
	case Greedy:
		return "Greedy"
	}
	return fmt.Sprintf("Tree(%d)", int(t))
}

func (t Tree) kind() (trees.Kind, error) {
	switch t {
	case Auto:
		return trees.Auto, nil
	case FlatTS:
		return trees.FlatTS, nil
	case FlatTT:
		return trees.FlatTT, nil
	case Greedy:
		return trees.Greedy, nil
	}
	return 0, fmt.Errorf("bidiag: unknown tree %d", int(t))
}

// Algorithm selects between direct bidiagonalization and
// R-bidiagonalization.
type Algorithm int

const (
	// AutoAlgorithm applies Chan's operation-count rule: R-bidiagonalize
	// when m ≥ 5n/3, bidiagonalize directly otherwise.
	AutoAlgorithm Algorithm = iota
	// Bidiag always uses the direct tiled bidiagonalization.
	Bidiag
	// RBidiag always performs the QR factorization first.
	RBidiag
)

func (a Algorithm) String() string {
	switch a {
	case AutoAlgorithm:
		return "AutoAlgorithm"
	case Bidiag:
		return "Bidiag"
	case RBidiag:
		return "RBidiag"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Options configures the reduction. The zero value (or a nil pointer)
// selects the defaults of the paper's implementation.
type Options struct {
	// Auto hands plan selection to the model-seeded planner: every
	// zero-valued plan knob (NB, Tree = Auto, Algorithm = AutoAlgorithm)
	// is chosen by pricing candidate plans on the machine model, while
	// explicitly set ones are honored as pins; the other knobs pass
	// through.
	// The resolution is deterministic — AutoPlan returns the concrete
	// Options an Auto run executes, bitwise-identically. Incompatible
	// with Distributed. Service jobs additionally refine Auto plans
	// online from measured throughput (see ServiceConfig.PlanProfiles).
	Auto bool
	// NB is the tile size (default 64; the paper tunes 160 for its
	// hardware).
	NB int
	// Tree is the reduction tree (default Auto).
	Tree Tree
	// Algorithm picks direct or R-bidiagonalization (default: Chan's
	// m ≥ 5n/3 rule).
	Algorithm Algorithm
	// Workers is the number of parallel workers (default GOMAXPROCS).
	Workers int
	// Gamma is the AUTO tree's parallelism target multiplier (default 2).
	Gamma int
	// Distributed, when non-nil, executes the reduction on a grid of
	// in-process distributed-memory nodes instead of the shared-memory
	// worker pool, with the paper's hierarchical distributed trees: Tree
	// must then be left at Auto, and Options.Auto unset.
	Distributed *DistOptions
	// Gemm tunes the cache blocking of the packed GEMM micro-kernel the
	// tile kernels bottom out in. The zero value selects defaults tuned
	// for tile-scale operands; it rarely needs changing.
	Gemm GemmBlock
	// BND2BDWindow is the width in columns at which the BND2BD chase is
	// cut into tasks, rounded down to whole NB-blocks and at least one: a
	// task advances its sweeps by that many columns. 0 derives the cut
	// from the task size that outweighs scheduling and from the band's
	// length — short steps where the sweeps are long enough to pipeline,
	// whole sweeps where they are not. The result never depends on it.
	// Negative values are rejected.
	BND2BDWindow int
}

// GemmBlock holds the cache-block sizes of the packed GEMM: panels of A
// are MC×KC, panels of B KC×NC (in elements). Zero fields select the
// defaults. Every worker uses the same blocking, which keeps parallel and
// distributed results bitwise-identical to the sequential reference.
type GemmBlock struct {
	MC, KC, NC int
}

// DistOptions configures distributed execution.
type DistOptions struct {
	// Nodes is the number of in-process nodes (default 4). Ignored when
	// an explicit grid is given.
	Nodes int
	// GridRows and GridCols select an explicit process grid. When zero,
	// a near-square grid is derived from Nodes (or an N×1 grid for
	// tall-skinny inputs with m ≥ 2n).
	GridRows, GridCols int
	// WorkersPerNode is each node's worker pool size (default: Workers
	// divided across the nodes, at least 1).
	WorkersPerNode int
}

// DistStats reports the measured behaviour of a distributed execution.
type DistStats struct {
	// Nodes, GridRows and GridCols describe the machine that ran.
	Nodes, GridRows, GridCols int
	// CommCount and CommVolume are the deduplicated inter-node transfers
	// and their modeled byte volume — directly comparable to the
	// prediction of the distributed simulator on the same graph.
	CommCount  int
	CommVolume float64
	// PayloadBytes is the serialized tile data actually moved.
	PayloadBytes int64
	// Wall and Utilization describe the execution itself.
	Wall        time.Duration
	Utilization float64
}

// defaultGamma is the AUTO tree's parallelism target multiplier when
// Options.Gamma is unset.
const defaultGamma = 2

func (o *Options) withDefaults() (Options, error) {
	var v Options
	if o != nil {
		v = *o
	}
	if v.NB <= 0 {
		v.NB = 64
	}
	if v.Workers <= 0 {
		v.Workers = runtime.GOMAXPROCS(0)
	}
	if v.Gamma <= 0 {
		v.Gamma = defaultGamma
	}
	if v.BND2BDWindow < 0 {
		return v, fmt.Errorf("bidiag: BND2BDWindow must be ≥ 0 (0 selects the default), got %d", v.BND2BDWindow)
	}
	return v, nil
}

// Dense is a column-major dense matrix, the package's input type.
type Dense struct {
	inner *nla.Matrix
}

// NewDense allocates a zeroed m×n matrix.
func NewDense(m, n int) *Dense {
	return &Dense{inner: nla.NewMatrix(m, n)}
}

// NewDenseFromColMajor wraps column-major data (a[i + j*m] is element
// (i, j)) without copying; len(data) must be at least m*n.
func NewDenseFromColMajor(m, n int, data []float64) (*Dense, error) {
	if len(data) < m*n {
		return nil, fmt.Errorf("bidiag: need %d elements, got %d", m*n, len(data))
	}
	return &Dense{inner: nla.FromColMajor(m, n, m, data)}, nil
}

// Rows returns the row count.
func (d *Dense) Rows() int { return d.inner.Rows }

// Cols returns the column count.
func (d *Dense) Cols() int { return d.inner.Cols }

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.inner.At(i, j) }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.inner.Set(i, j, v) }

// Band is the band-bidiagonal result of GE2BND.
type Band struct {
	b *band.Matrix
	// UsedRBidiag reports whether the R-bidiagonalization path ran.
	UsedRBidiag bool
	// TasksExecuted is the number of kernel tasks in the DAG.
	TasksExecuted int
	// Dist holds measured communication statistics when the reduction ran
	// distributed (Options.Distributed non-nil); nil otherwise.
	Dist *DistStats

	// workers and window carry the Options the band was produced under,
	// so SingularValues cuts and runs its BND2BD stage the same way.
	workers int
	window  int
}

// N returns the order of the band matrix.
func (b *Band) N() int { return b.b.N }

// Bandwidth returns the number of stored superdiagonals.
func (b *Band) Bandwidth() int { return b.b.KU }

// At returns element (i, j) of the band matrix (zero outside the band).
func (b *Band) At(i, j int) float64 { return b.b.At(i, j) }

// SingularValues finishes the pipeline on the band: BND2BD bulge chasing
// followed by dqds on the bidiagonal. The BND2BD stage runs as a
// task graph (a stage-2 pipeline.Plan on the pool executor) with the
// worker count and cut width the band was produced with; its outcome is
// bitwise that of the sequential chase whatever either is.
func (b *Band) SingularValues() ([]float64, error) {
	return chaseValues(context.Background(), pipeline.BuildBND2BD(b.b, b.window), pipeline.Pool{Workers: max(b.workers, 1)}, nil)
}

// chaseValues runs the chase plan p on ex, then solves the bidiagonal. The
// chase graph inherits stage1's tracer and meter when stage1 is given, so
// a traced or metered job covers both stages.
func chaseValues(ctx context.Context, p *pipeline.Plan, ex pipeline.Executor, stage1 *sched.Graph) ([]float64, error) {
	if stage1 != nil {
		p.Graph.Tracer, p.Graph.Meter = stage1.Tracer, stage1.Meter
	}
	if _, err := pipeline.RunCtx(ctx, p, ex); err != nil {
		return nil, err
	}
	d, e := p.Bidiagonal().Bidiagonal()
	p.Return()
	return bdsqr.SingularValues(d, e)
}

// GE2BND reduces a to band-bidiagonal form using the tiled BIDIAG or
// R-BIDIAG algorithm. The input matrix is not modified. Matrices with
// m < n are reduced through their transpose (singular values are
// unaffected), and the Algorithm choice applies to the transposed —
// m ≥ n — problem: R-bidiagonalization composes with the implicit
// transpose, so Algorithm = RBidiag is valid for every nonempty shape
// and QR-factorizes the (possibly transposed) input first.
func GE2BND(a *Dense, o *Options) (*Band, error) {
	j, opts, err := oneShot(JobSingularValues, a, o)
	if err != nil {
		return nil, err
	}
	ex := j.stage1
	if ex == nil {
		ex = pipeline.Pool{Workers: opts.Workers}
	}
	rep, err := pipeline.Run(j.plan, ex)
	if err != nil {
		return nil, err
	}
	b := &Band{
		b:             j.plan.Tiles.ExtractBand(j.plan.Tiles.NB),
		UsedRBidiag:   j.plan.UsedRBidiag,
		TasksExecuted: rep.Tasks,
		Dist:          distStatsOf(rep),
		workers:       opts.Workers,
		window:        opts.BND2BDWindow,
	}
	j.arena.Release()
	j.plan.Return()
	return b, nil
}

// gridJob resolves Options.Distributed for an m×n (m ≥ n) input into the
// owner-compute job every rank builds its graph from: the node grid, the
// per-node worker count and the options that shape the trees.
func gridJob(opts Options, m, n int) (pipeline.GridJob, error) {
	d := opts.Distributed
	var grid dist.Grid
	switch {
	case d.GridRows > 0 && d.GridCols > 0:
		grid = dist.Grid{R: d.GridRows, C: d.GridCols}
	case d.GridRows != 0 || d.GridCols != 0:
		return pipeline.GridJob{}, fmt.Errorf("bidiag: invalid grid %dx%d; both dimensions must be positive (or zero to derive one)",
			d.GridRows, d.GridCols)
	default:
		nodes := d.Nodes
		if nodes <= 0 {
			nodes = 4
		}
		if m >= 2*n {
			grid = dist.TallSkinnyGrid(nodes)
		} else {
			grid = dist.SquareGrid(nodes)
		}
	}
	wpn := d.WorkersPerNode
	if wpn <= 0 {
		wpn = max(1, opts.Workers/grid.Nodes())
	}
	return pipeline.GridJob{
		NB: opts.NB, RBidiag: useRBidiag(opts, m, n),
		Grid: grid, WPN: wpn, Gamma: opts.Gamma, Gemm: nla.Blocking(opts.Gemm),
	}, grid.Validate()
}

// useRBidiag applies Options.Algorithm to an m×n (m ≥ n) input.
func useRBidiag(opts Options, m, n int) bool {
	return opts.Algorithm == RBidiag || (opts.Algorithm == AutoAlgorithm && 3*m >= 5*n)
}

// prepare is the shared prologue of every public entry point: the
// non-finite input check, then resolve.
func prepare(a *Dense, o *Options) (opts Options, src *nla.Matrix, treeKind trees.Kind, transposed bool, err error) {
	if err := a.CheckFinite(); err != nil {
		return opts, nil, 0, false, err
	}
	return resolve(a, o)
}

// resolve lowers an admitted input: option validation (Validate is the
// one consolidated checking path), planner resolution of Options.Auto,
// reduction-tree resolution, the implicit transpose of wide inputs
// (m < n), and the empty-matrix check.
func resolve(a *Dense, o *Options) (opts Options, src *nla.Matrix, treeKind trees.Kind, transposed bool, err error) {
	opts, err = o.Validate()
	if err != nil {
		return opts, nil, 0, false, err
	}
	src = a.inner
	if src.Rows < src.Cols {
		src = src.Transpose()
		transposed = true
	}
	if src.Rows == 0 || src.Cols == 0 {
		return opts, nil, 0, false, errors.New("bidiag: empty matrix")
	}
	if opts.Auto {
		// AutoPlan normalizes m ≥ n itself, so passing the original shape
		// resolves identically to the transposed one.
		opts, err = AutoPlan(src.Rows, src.Cols, o)
		if err != nil {
			return opts, nil, 0, false, err
		}
	}
	treeKind, err = opts.Tree.kind()
	if err != nil {
		return opts, nil, 0, false, err
	}
	return opts, src, treeKind, transposed, nil
}

// job is one computation of a JobKind, the unit every entry point runs:
// its GE2BND plan, and the finish that turns the executed plan into the
// result, running any later graphs on the executor it is handed.
type job struct {
	// plan is a template for a values job on shared memory, else a fresh
	// build on arena. Whoever runs the job releases both once it has
	// succeeded — never on failure, when a task may still be in flight.
	plan  *pipeline.Plan
	arena *nla.Arena
	// stage1 runs the plan's graph when the caller's executor does not: a
	// grid job's nodes, or a service's mesh.
	stage1 pipeline.Executor
	finish func(ctx context.Context, ex pipeline.Executor) (*JobResult, error)
}

// newJob builds a job: the GE2BND graph of src (m ≥ n, transposed when the
// input was wide) with the shared-memory trees, or with a grid job
// (Options.Distributed, resolved by gridJob) the distributed ones. A
// values job's finish extracts the band and chases it; an SVD job records
// its reflectors and its finish is finishSVD. The chase and the back half
// record on the GE2BND graph's tracer, so a traced job's timeline holds
// them too.
func newJob(kind JobKind, src *nla.Matrix, opts Options, treeKind trees.Kind, transposed bool, gj *pipeline.GridJob) job {
	j := job{arena: new(nla.Arena)}
	var rec *core.Recorder
	if kind == JobSVD {
		rec = &core.Recorder{Blocking: nla.Blocking(opts.Gemm)}
	}
	m, n := src.Rows, src.Cols
	spec := pipeline.Spec{
		Shape:   core.ShapeOf(m, n, opts.NB),
		Config:  core.Config{Tree: treeKind, Gamma: opts.Gamma, Cores: opts.Workers, Blocking: nla.Blocking(opts.Gemm)},
		RBidiag: useRBidiag(opts, m, n),
	}
	switch {
	case gj != nil:
		spec = gj.SpecIn(j.arena, src)
		j.stage1 = pipeline.OwnerCompute{Grid: gj.Grid, WorkersPerNode: gj.WPN}
	case rec == nil:
		j.plan = pipeline.Template(spec, src)
	default:
		spec.Data = tile.FromDenseIn(j.arena, src, opts.NB)
	}
	if j.plan == nil {
		spec.Config.Recorder = rec
		j.plan = pipeline.Build(spec)
	}
	p := j.plan
	j.finish = func(ctx context.Context, ex pipeline.Executor) (*JobResult, error) {
		if rec != nil {
			res, err := finishSVD(ctx, p, rec, ex, transposed)
			if err != nil {
				return nil, err
			}
			return &JobResult{Values: res.S, SVD: res}, nil
		}
		chase := pipeline.Chase(min(p.Tiles.M, p.Tiles.N), p.Tiles.NB, opts.BND2BDWindow, p.Tiles.ExtractBandInto)
		s, err := chaseValues(ctx, chase, ex, p.Graph)
		if err != nil {
			return nil, err
		}
		return &JobResult{Values: s}, nil
	}
	return j
}

// oneShot lowers a one-shot call to its job: the input check, resolve,
// and the grid job of Options.Distributed.
func oneShot(kind JobKind, a *Dense, o *Options) (job, Options, error) {
	opts, src, treeKind, transposed, err := prepare(a, o)
	if err != nil {
		return job{}, opts, err
	}
	var gj *pipeline.GridJob
	if opts.Distributed != nil {
		g, err := gridJob(opts, src.Rows, src.Cols)
		if err != nil {
			return job{}, opts, err
		}
		gj = &g
	}
	return newJob(kind, src, opts, treeKind, transposed, gj), opts, nil
}

// runOnce runs a one-shot call: every graph of the job on one
// sched.Runtime of Options.Workers started for the call and closed when it
// returns — on the calling goroutine when Workers is 1 — except a grid
// job's GE2BND graph, which runs on its nodes.
func runOnce(ctx context.Context, kind JobKind, a *Dense, o *Options) (*JobResult, *pipeline.Report, error) {
	j, opts, err := oneShot(kind, a, o)
	if err != nil {
		return nil, nil, err
	}
	ex := pipeline.Executor(pipeline.Sequential{})
	if opts.Workers > 1 {
		rt := sched.NewRuntime(opts.Workers)
		defer rt.Close()
		ex = pipeline.Shared{Runtime: rt}
	}
	stage1 := j.stage1
	if stage1 == nil {
		stage1 = ex
	}
	rep, err := pipeline.RunCtx(ctx, j.plan, stage1)
	if err != nil {
		return nil, nil, err
	}
	res, err := j.finish(ctx, ex)
	if err != nil {
		return nil, nil, err
	}
	j.arena.Release()
	j.plan.Return()
	return res, rep, nil
}

// distStatsOf converts an executor report's distributed statistics into
// the public DistStats (nil for shared-memory runs).
func distStatsOf(rep *pipeline.Report) *DistStats {
	if rep.Dist == nil {
		return nil
	}
	return &DistStats{
		Nodes:        rep.Dist.Nodes,
		GridRows:     rep.GridRows,
		GridCols:     rep.GridCols,
		CommCount:    rep.Dist.CommCount,
		CommVolume:   rep.Dist.CommVolume,
		PayloadBytes: rep.Dist.PayloadBytes,
		Wall:         rep.Dist.Wall,
		Utilization:  rep.Dist.Utilization,
	}
}

// SingularValues returns the singular values of a in descending order,
// computed by the full GE2BND + BND2BD + BD2VAL pipeline. The call runs
// all its graphs on one runtime of Options.Workers (see
// SingularValuesCtx).
func SingularValues(a *Dense, o *Options) ([]float64, error) {
	return SingularValuesCtx(context.Background(), a, o)
}

// SingularValuesCtx is SingularValues under a context: a cancelled ctx
// stops scheduling new kernel tasks promptly (in-flight tiles finish)
// and returns context.Cause(ctx), on every engine. With Options.Workers
// above one, the call starts one worker pool and runs both its graphs on
// it, the GE2BND graph and the band chase; Workers: 1 runs them on the
// calling goroutine.
func SingularValuesCtx(ctx context.Context, a *Dense, o *Options) ([]float64, error) {
	res, _, err := runOnce(ctx, JobSingularValues, a, o)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}
