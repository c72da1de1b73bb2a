package bidiag

import (
	"context"

	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/jacobi"
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

// SVD computes the thin singular value decomposition using the tiled
// reduction: GE2BND with transformation recording, a dense SVD of the
// small band factor, and application of the recorded tiled reflectors to
// map the band's singular vectors back to the full space.
//
// Computing singular vectors on top of the two-stage reduction is the
// extension the paper lists as future work; here the band factor (n×n,
// bandwidth NB+1) is resolved by one-sided Jacobi, so the reduction's
// second stage (BND2BD) is bypassed when vectors are requested — the
// trade-off Section II describes for multi-step methods.
//
// The decomposition requires a numerically full-rank A for the U columns
// associated with the smallest singular values to be reliable.
// Options.Fused is ignored here: there is no BND2BD stage to fuse.
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
	plan, ex, err := buildPlan(src, opts, treeKind, rec, false)
	if err != nil {
		return nil, err
	}
	rep, err := pipeline.RunCtx(ctx, plan, ex)
	if err != nil {
		return nil, err
	}
	ds := distStatsOf(rep)
	if err := ctx.Err(); err != nil {
		// A cancellation that lands after the graph drained still spares
		// the dense band SVD and the reflector application.
		return nil, err
	}

	// Dense SVD of the small band factor.
	bandDense := plan.Tiles.ExtractBand(plan.Tiles.NB).ToDense()
	ub, s, vb := jacobi.SVD(bandDense)

	// Map the band vectors back through the recorded reflectors:
	// U = E₁ᵀ···E_Kᵀ·[U_b; 0] and Vᵀ = V_bᵀ·F_Lᵀ···F₁ᵀ.
	u, err := rec.ApplyLeftAll(ub, opts.Workers)
	if err != nil {
		return nil, err
	}
	vt, err := rec.ApplyRightAll(vb.Transpose(), opts.Workers)
	if err != nil {
		return nil, err
	}
	v := vt.Transpose()

	if transposed {
		u, v = v, u
	}
	return &SVDResult{U: &Dense{inner: u}, S: s, V: &Dense{inner: v}, Dist: ds}, nil
}
