package bidiag

import (
	"context"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/sched"
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
//  3. the bidiagonal solve: B_bd = U_bd·Σ·V_bdᵀ, Σ from dqds, the same
//     call SingularValues makes, and the vectors from the QR iteration,
//     its plane rotations folded into Q₂ and P₂ panel by panel;
//
// and the recorded stage-1 reflectors map Q₂·U_bd and P₂·V_bd back to the
// full space. U and V are products of orthogonal transformations whatever
// the rank of A, and S is bitwise what SingularValues returns for the same
// Options. Computing singular vectors on top of the two-stage reduction
// is the extension the paper lists as future work.
//
// Options.BND2BDWindow does not apply: the logged chase does not run as
// a task graph yet. With Options.Workers above one, the call starts one
// worker pool and runs every graph on it — the GE2BND graph, forming Q₂
// and P₂, each batch of rotations, and the two back-transforms, submitted
// together — and Workers: 1 runs them all on the calling goroutine. The
// trees and the row-panel cut do not depend on where the graphs run, so
// U, S and V are bitwise the same on any worker count.
func SVD(a *Dense, o *Options) (*SVDResult, error) {
	return SVDCtx(context.Background(), a, o)
}

// SVDCtx is SVD under a context: a cancelled ctx stops scheduling new
// reduction tasks promptly (in-flight tiles finish) and returns
// context.Cause(ctx), on every engine.
func SVDCtx(ctx context.Context, a *Dense, o *Options) (*SVDResult, error) {
	res, rep, err := runOnce(ctx, JobSVD, a, o)
	if err != nil {
		return nil, err
	}
	res.SVD.Dist = distStatsOf(rep)
	return res.SVD, nil
}

// finishSVD turns an executed recording GE2BND plan (Plan.Recorder) into the
// decomposition: stages 2 and 3 on the band factor, then the recorded
// reflectors. Every graph runs on ex under ctx and records on the GE2BND
// graph's tracer, so a traced job's timeline holds the back half too; the
// meter stays on stage 1, the part the planner prices. The two
// back-transforms are in flight together unless ex is Sequential. ctx is
// also checked before the logged chase and the bidiagonal iteration,
// which run on the calling goroutine, so a cancellation that lands
// between graphs spares what is left.
func finishSVD(ctx context.Context, plan *pipeline.Plan, ex pipeline.Executor, transposed bool) (*SVDResult, error) {
	run := func(g *sched.Graph) error {
		g.Tracer = plan.Graph.Tracer
		_, err := ex.Execute(ctx, g)
		return err
	}
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	bd, log := band.ReduceLogged(plan.Tiles.ExtractBand(plan.Tiles.NB))
	ub, vb, err := core.FormQP(log, run)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	d, e := bd.Bidiagonal()
	s, err := core.BidiagonalVectors(d, e, ub, vb, run)
	if err != nil {
		return nil, err
	}

	// Map the band vectors back through the recorded reflectors:
	// U = E₁ᵀ···E_Kᵀ·[U_b; 0] and V = F₁···F_L·V_b.
	_, inOrder := ex.(pipeline.Sequential)
	u, v, err := plan.Recorder.ApplyBoth(ub, vb, run, inOrder)
	if err != nil {
		return nil, err
	}
	if transposed {
		u, v = v, u
	}
	return &SVDResult{U: &Dense{inner: u}, S: s, V: &Dense{inner: v}}, nil
}
