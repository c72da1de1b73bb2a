package bidiag

import (
	"context"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/pipeline"
)

// SVDResult holds a thin singular value decomposition A ≈ U·diag(S)·Vᵀ.
type SVDResult struct {
	// U has the shape m×min(m,n) with orthonormal columns.
	U *Dense
	// S holds min(m,n) singular values in descending order.
	S []float64
	// V has the shape n×min(m,n) with orthonormal columns.
	V *Dense
	// Dist holds measured communication statistics when the reduction ran
	// distributed (Options.Distributed non-nil); nil otherwise.
	Dist *DistStats
}

// SVD computes the thin singular value decomposition by the paper's
// three-stage pipeline, made vector-bearing:
//
//  1. GE2BND with transformation recording: A = Q₁·[B; 0]·P₁ᵀ, B the n×n
//     band factor, the tiled reflectors of Q₁ and P₁ kept beside it;
//  2. BND2BD logging its reflectors: B = Q₂·B_bd·P₂ᵀ (the sequential
//     Householder bulge chase; Q₂ and P₂ are formed from the log in row
//     panels on the worker pool);
//  3. the bidiagonal QR iteration with vectors: B_bd = U_bd·Σ·V_bdᵀ, its
//     plane rotations folded into Q₂ and P₂ panel by panel;
//
// and the recorded stage-1 reflectors map Q₂·U_bd and P₂·V_bd back to the
// full space. U and V are products of orthogonal transformations whatever
// the rank of A, and S is bitwise what SingularValues returns for the same
// Options. Computing singular vectors on top of the two-stage reduction
// is the extension the paper lists as future work.
//
// Options.BND2BD and BND2BDWindow do not apply: the logged chase does
// not run as a task graph yet. Options.Workers is an upper bound:
// an input too small for a second thread to pay (core.SVDWorkers; 256²
// is, 384² is not) is decomposed on the calling goroutine, with the same
// trees and therefore the same bits as on any other worker count.
func SVD(a *Dense, o *Options) (*SVDResult, error) {
	return SVDCtx(context.Background(), a, o)
}

// SVDCtx is SVD under a context: a cancelled ctx stops scheduling new
// reduction tasks promptly (in-flight tiles finish) and returns
// ctx.Err(), on every engine.
func SVDCtx(ctx context.Context, a *Dense, o *Options) (*SVDResult, error) {
	opts, src, treeKind, transposed, err := prepare(a, o)
	if err != nil {
		return nil, err
	}

	rec := &core.Recorder{}
	plan, ex, err := buildPlan(src, opts, treeKind, rec)
	if err != nil {
		return nil, err
	}
	// The plan keeps opts.Workers for its trees; only the execution of a
	// small input is narrowed.
	workers := core.SVDWorkers(src.Rows, src.Cols, opts.Workers)
	if opts.Distributed == nil {
		ex = pipeline.Pool{Workers: workers}
	}
	rep, err := pipeline.RunCtx(ctx, plan, ex)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		// A cancellation that lands after the graph drained still spares
		// stages 2 and 3 and the reflector application.
		return nil, err
	}
	res, err := finishSVD(plan, rec, workers, transposed)
	if err != nil {
		return nil, err
	}
	res.Dist = distStatsOf(rep)
	return res, nil
}

// finishSVD turns an executed recording GE2BND plan into the
// decomposition: stages 2 and 3 on the band factor, then the recorded
// reflectors, their panel and tile graphs on workers workers.
func finishSVD(plan *pipeline.Plan, rec *core.Recorder, workers int, transposed bool) (*SVDResult, error) {
	bd, log := band.ReduceLogged(plan.Tiles.ExtractBand(plan.Tiles.NB))
	ub, vb, err := core.FormQP(log, workers)
	if err != nil {
		return nil, err
	}
	d, e := bd.Bidiagonal()
	s, err := core.BidiagonalVectors(d, e, ub, vb, workers)
	if err != nil {
		return nil, err
	}

	// Map the band vectors back through the recorded reflectors:
	// U = E₁ᵀ···E_Kᵀ·[U_b; 0] and V = F₁···F_L·V_b.
	u, err := rec.ApplyLeftAll(ub, workers)
	if err != nil {
		return nil, err
	}
	v, err := rec.ApplyRightAllT(vb, workers)
	if err != nil {
		return nil, err
	}
	if transposed {
		u, v = v, u
	}
	return &SVDResult{U: &Dense{inner: u}, S: s, V: &Dense{inner: v}}, nil
}
