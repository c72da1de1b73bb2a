package main

import (
	"fmt"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/bdsqr"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/jacobi"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/tile"
	"github.com/tiled-la/bidiag/internal/trees"
)

// The functions here run one library call stage by stage, mirroring
// bidiag.SingularValuesCtx (staged path) and bidiag.SVDCtx, with a span
// around each call into a layer. They exist because the library has no
// spans of its own for the stages outside the task graph; the untraced
// numbers always come from the real entry points.

// stagePlan is a bidiag.Options lowered to the internal types the stage
// functions take, as bidiag.prepare/buildSpec lower it.
type stagePlan struct {
	nb, workers, gamma, window int
	tree                       trees.Kind
	rbidiag                    bool
	blocking                   nla.Blocking
}

// lower resolves opts for an m×n (m ≥ n) input. Options.Auto is resolved
// through bidiag.AutoPlan, the planner's model pick.
func lower(m, n int, opts *bidiag.Options) (stagePlan, error) {
	var o bidiag.Options
	if opts != nil {
		o = *opts
	}
	var err error
	if o.Auto {
		o, err = bidiag.AutoPlan(m, n, &o)
	} else {
		o, err = o.Validate()
	}
	if err != nil {
		return stagePlan{}, err
	}
	tree, ok := map[bidiag.Tree]trees.Kind{
		bidiag.Auto: trees.Auto, bidiag.FlatTS: trees.FlatTS, bidiag.FlatTT: trees.FlatTT, bidiag.Greedy: trees.Greedy,
	}[o.Tree]
	if !ok {
		return stagePlan{}, fmt.Errorf("unknown tree %v", o.Tree)
	}
	return stagePlan{
		nb: o.NB, workers: o.Workers, gamma: o.Gamma, window: o.BND2BDWindow, tree: tree,
		rbidiag:  o.Algorithm == bidiag.RBidiag || (o.Algorithm == bidiag.AutoAlgorithm && 3*m >= 5*n),
		blocking: nla.Blocking(o.Gemm),
	}, nil
}

func (sp stagePlan) spec(src *nla.Matrix, data *tile.Matrix, rec *core.Recorder) pipeline.Spec {
	return pipeline.Spec{
		Shape:   core.ShapeOf(src.Rows, src.Cols, sp.nb),
		Data:    data,
		Config:  core.Config{Tree: sp.tree, Gamma: sp.gamma, Cores: sp.workers, Recorder: rec, Blocking: sp.blocking},
		RBidiag: sp.rbidiag,
		Window:  sp.window,
	}
}

// stageCounts are the exact counts of one staged run.
type stageCounts struct {
	ge2bndTasks, bandTasks int
	ge2bndFlops, bandFlops float64 // modeled, from the graphs' task weights
}

// timed runs f inside a span.
func timed(tr *tracer, parent, op int, name string, f func()) {
	id := tr.begin(parent, op, name)
	f()
	tr.end(id)
}

// tall returns a with rows ≥ cols, transposing a wide input as the
// library's prepare does.
func tall(a *nla.Matrix) *nla.Matrix {
	if a.Rows < a.Cols {
		return a.Transpose()
	}
	return a
}

// stagedValues computes the singular values of a under root span `name`
// and then, under a sibling "baseline" span, the same two graph stages
// on one worker and the sequential band reduction — the plain
// single-thread figures parallel efficiency is judged against.
func stagedValues(tr *tracer, op int, name string, a *nla.Matrix, sp stagePlan) ([]float64, stageCounts, error) {
	var (
		cnt  stageCounts
		p    *pipeline.Plan
		p2   *pipeline.Plan
		bm   *band.Matrix
		td   *tile.Matrix
		sv   []float64
		err  error
		pool = pipeline.Pool{Workers: sp.workers}
	)
	root := tr.begin(0, op, name)
	src := tall(a)
	timed(tr, root, op, "tile.from_dense", func() { td = tile.FromDense(src, sp.nb) })
	timed(tr, root, op, "pipeline.build", func() { p = pipeline.Build(sp.spec(src, td, nil)) })
	timed(tr, root, op, "ge2bnd.run", func() { _, err = pipeline.Run(p, pool) })
	if err != nil {
		return nil, cnt, err
	}
	timed(tr, root, op, "tile.extract_band", func() { bm = p.Tiles.ExtractBand(p.Tiles.NB) })
	timed(tr, root, op, "band.build", func() { p2 = pipeline.BuildBND2BD(bm, sp.window) })
	timed(tr, root, op, "band.run", func() { _, err = pipeline.Run(p2, pool) })
	if err != nil {
		return nil, cnt, err
	}
	timed(tr, root, op, "bdsqr.solve", func() {
		d, e := p2.Bidiagonal().Bidiagonal()
		sv, err = bdsqr.SingularValues(d, e)
	})
	tr.end(root)
	if err != nil {
		return nil, cnt, err
	}
	cnt = stageCounts{
		ge2bndTasks: len(p.Graph.Tasks), ge2bndFlops: p.Graph.Summary().TotalFlops,
		bandTasks: len(p2.Graph.Tasks), bandFlops: p2.Graph.Summary().TotalFlops,
	}

	base := tr.begin(0, op, "baseline")
	p1 := pipeline.Build(sp.spec(src, tile.FromDense(src, sp.nb), nil))
	timed(tr, base, op, "ge2bnd.run1", func() { _, err = pipeline.Run(p1, pipeline.Pool{Workers: 1}) })
	p3 := pipeline.BuildBND2BD(bm, sp.window)
	if err == nil {
		timed(tr, base, op, "band.run1", func() { _, err = pipeline.Run(p3, pipeline.Pool{Workers: 1}) })
	}
	timed(tr, base, op, "band.seq", func() { band.Reduce(bm) })
	tr.end(base)
	return sv, cnt, err
}

// stagedSVD computes the thin SVD of a under root span `name`.
func stagedSVD(tr *tracer, op int, name string, a *nla.Matrix, sp stagePlan) (u *nla.Matrix, s []float64, v *nla.Matrix, cnt stageCounts, err error) {
	var (
		p          *pipeline.Plan
		td         *tile.Matrix
		bd, ub, vb *nla.Matrix
		rec        = &core.Recorder{Blocking: sp.blocking}
	)
	root := tr.begin(0, op, name)
	src := tall(a)
	timed(tr, root, op, "tile.from_dense", func() { td = tile.FromDense(src, sp.nb) })
	timed(tr, root, op, "pipeline.build", func() { p = pipeline.Build(sp.spec(src, td, rec)) })
	timed(tr, root, op, "svd.ge2bnd_rec", func() { _, err = pipeline.Run(p, pipeline.Pool{Workers: sp.workers}) })
	if err != nil {
		return nil, nil, nil, cnt, err
	}
	timed(tr, root, op, "tile.extract_band", func() { bd = p.Tiles.ExtractBand(p.Tiles.NB).ToDense() })
	timed(tr, root, op, "jacobi.svd", func() { ub, s, vb = jacobi.SVD(bd) })
	timed(tr, root, op, "core.apply_left", func() { u, err = rec.ApplyLeftAll(ub, sp.workers) })
	if err != nil {
		return nil, nil, nil, cnt, err
	}
	timed(tr, root, op, "core.apply_right", func() {
		var vt *nla.Matrix
		if vt, err = rec.ApplyRightAll(vb.Transpose(), sp.workers); err == nil {
			v = vt.Transpose()
		}
	})
	if err != nil {
		return nil, nil, nil, cnt, err
	}
	if a.Rows < a.Cols {
		u, v = v, u
	}
	tr.end(root)
	cnt = stageCounts{ge2bndTasks: len(p.Graph.Tasks), ge2bndFlops: p.Graph.Summary().TotalFlops}
	return u, s, v, cnt, nil
}
