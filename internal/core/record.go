package core

import (
	"cmp"

	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
)

// The paper's implementation computes singular values only; accumulating
// the singular vectors is listed as future work. This file provides that
// extension: the builders can record every orthogonal transformation they
// apply (the reflector tiles stay intact in the factored matrix, as in
// PLASMA), and the recorded product can later be applied to fresh
// matrices, which turns GE2BND + a band SVD into a full GESVD.
//
// Algebra: GE2BND computes B = E_K···E_1 · A · F_1···F_L with E_i the left
// (QR-step) elementary block reflectors and F_j the right (LQ-step) ones.
// Hence A = E_1ᵀ···E_Kᵀ · B · F_Lᵀ···F_1ᵀ, so for B = U_b Σ V_bᵀ:
//
//	U = E_1ᵀ···E_Kᵀ · [U_b; 0]    (apply left records in reverse, no-trans)
//	Vᵀ = V_bᵀ · F_Lᵀ···F_1ᵀ       (apply right records in reverse, no-trans)
//
// R-BIDIAG produces two stages (the QR of A, then the bidiagonalization of
// the copied R factor); stages compose by embedding the n×n result into
// the top block of the m×n one.

// recKind discriminates the recorded factorization kernels; the side of
// the list an opRec sits in says whether it is the QR or the LQ kernel.
type recKind int8

const (
	recFactor recKind = iota // GEQRT or GELQT
	recTS
	recTT
)

// opRec is one recorded elementary block reflector.
type opRec struct {
	kind     recKind
	piv, row int         // panel tiles in step coordinates; piv unused for recFactor
	kk       int         // reflector count
	v        *nla.Matrix // tile holding the vector tails (valid post-execution)
	t        *nla.Matrix // block reflector factor
}

// RecStage is the recorded transformation product of one matrix phase.
type RecStage struct {
	Sh  Shape
	ops [2][]opRec // left (QR) and right (LQ) reflectors, indexed by side.rec
}

// Recorder accumulates stages across builders. Attach one to Config to
// enable recording (real-data builds only).
type Recorder struct {
	Stages []*RecStage
	// Blocking is the GEMM cache blocking the apply stages execute under;
	// buildAndRun copies Config.Blocking here so the vector-application
	// graphs run with the same blocking as the reduction itself.
	Blocking nla.Blocking
}

func (r *Recorder) newStage(sh Shape) *RecStage {
	st := &RecStage{Sh: sh}
	r.Stages = append(r.Stages, st)
	return st
}

// Run executes one graph to completion. The back-half entry points
// (FormQP, BidiagonalVectors, ApplyLeft, ApplyRightT) take one instead of
// a worker count, so the caller decides where their graphs run: on the
// calling goroutine, on one runtime shared by every graph of a call, or on
// a service's runtime under a job's ctx and tracer.
type Run func(*sched.Graph) error

// poolRun is the Run of the worker-count entry points: each graph on a
// private pool of workers workers, or on the caller for workers ≤ 1.
func poolRun(workers int) Run {
	if workers <= 1 {
		return (*sched.Graph).RunSequential
	}
	return func(g *sched.Graph) error { return g.RunParallel(workers) }
}

// ApplyLeft computes E_1ᵀ···E_Kᵀ·[ub; 0] across all stages: ub must be
// n×n where n is the column count of the first-stage matrix; the result
// has the row count of the first stage (the original m).
func (r *Recorder) ApplyLeft(ub *nla.Matrix, run Run) (*nla.Matrix, error) {
	// Later stages act on smaller (R-factor) spaces: apply them first,
	// then embed into the top block of the preceding stage's row space.
	cur := ub
	for i := len(r.Stages) - 1; i >= 0; i-- {
		st := r.Stages[i]
		c := tile.FromDenseRows(cur, st.Sh.M, st.Sh.NB)
		if err := run(st.apply(qrSide, c, r.Blocking)); err != nil {
			return nil, err
		}
		cur = c.ToDense()
	}
	return cur, nil
}

// ApplyLeftAll is ApplyLeft with each graph on a pool of workers workers.
func (r *Recorder) ApplyLeftAll(ub *nla.Matrix, workers int) (*nla.Matrix, error) {
	return r.ApplyLeft(ub, poolRun(workers))
}

// ApplyRightAll computes vbt·F_Lᵀ···F_1ᵀ across all stages, each graph
// on a pool of workers workers; vbt is k×n with n the column count of
// the last stage's matrix.
func (r *Recorder) ApplyRightAll(vbt *nla.Matrix, workers int) (*nla.Matrix, error) {
	return r.applyRight(vbt, false, poolRun(workers))
}

// ApplyRightT is ApplyRightAll on the transposed operand: vb is n×k and
// the result is F_1···F_L·vb, so vectors stored as columns go in and come
// out without a transposed copy on either side.
func (r *Recorder) ApplyRightT(vb *nla.Matrix, run Run) (*nla.Matrix, error) {
	return r.applyRight(vb, true, run)
}

// ApplyBoth returns ApplyLeft(ub, run) and ApplyRightT(vb, run). The two
// products share no data, so unless inOrder the left one runs on a second
// goroutine and the graphs of both are in flight on run's workers
// together; inOrder keeps both on the calling goroutine, left first.
func (r *Recorder) ApplyBoth(ub, vb *nla.Matrix, run Run, inOrder bool) (u, v *nla.Matrix, err error) {
	var errU error
	done := make(chan struct{})
	left := func() {
		defer close(done)
		u, errU = r.ApplyLeft(ub, run)
	}
	if inOrder {
		left()
	} else {
		go left()
	}
	v, err = r.ApplyRightT(vb, run)
	<-done
	if err = cmp.Or(errU, err); err != nil {
		return nil, nil, err
	}
	return u, v, nil
}

// applyRight applies every stage's right product to x, read as k×n, or
// as its transpose n×k when transposed.
func (r *Recorder) applyRight(x *nla.Matrix, transposed bool, run Run) (*nla.Matrix, error) {
	nb := r.rightNB()
	if nb == 0 {
		return x, nil
	}
	from, to := tile.FromDense, (*tile.Matrix).ToDense
	if transposed {
		from, to = tile.FromDenseT, (*tile.Matrix).ToDenseT
	}
	c := from(x, nb)
	if err := r.applyRightAll(c, run); err != nil {
		return nil, err
	}
	return to(c), nil
}

// rightNB returns the tile size of the stages that have a right product,
// 0 when none has one (a single-column input). The stages of one
// Recorder share it, like the column count.
func (r *Recorder) rightNB() int {
	for _, st := range r.Stages {
		if len(st.ops[lqSide.rec]) > 0 {
			return st.Sh.NB
		}
	}
	return 0
}

// applyRightAll applies every stage's right product to the tiled k×n
// operand. Right transforms act on the column space, which every stage
// shares (the R copy keeps the full column count), so stages chain
// directly in reverse on the same tiles.
func (r *Recorder) applyRightAll(c *tile.Matrix, run Run) error {
	for i := len(r.Stages) - 1; i >= 0; i-- {
		if st := r.Stages[i]; len(st.ops[lqSide.rec]) > 0 {
			if err := run(st.apply(lqSide, c, r.Blocking)); err != nil {
				return err
			}
		}
	}
	return nil
}

// apply returns the graph that applies the stage's product of side s
// (no-trans, reverse order) to the tiled matrix c, whose tiling along the
// reflectors must match the stage shape: the left product for qrSide, the
// right one for lqSide. As in the builder, views are cut before the run
// closures are made.
func (st *RecStage) apply(s *side, c *tile.Matrix, bl nla.Blocking) *sched.Graph {
	g := sched.NewGraph()
	g.Blocking = bl
	handles := make([]*sched.Handle, c.P*c.Q)
	for i := range handles {
		handles[i] = g.NewHandle(1, 0)
	}
	h := func(i, j int) *sched.Handle { return handles[i+j*c.P] }
	_, width := s.swap(c.P, c.Q)
	ops := st.ops[s.rec]
	for idx := len(ops) - 1; idx >= 0; idx-- {
		rec := ops[idx]
		t, kk := rec.t, rec.kk
		for x := 0; x < width; x++ {
			i1, j1 := s.swap(rec.piv, x)
			i2, j2 := s.swap(rec.row, x)
			c2 := c.Tile(i2, j2)
			along, across := s.swap(c2.Rows, c2.Cols)
			switch rec.kind {
			case recFactor:
				v, unm := s.view(rec.v, along, kk), s.unm
				g.NeedScratch(kernels.ScratchSizeFor(s.unmKind, c2.Rows, c2.Cols, kk, bl))
				g.AddTask(s.unmKind, 0, kernels.Weight(s.unmKind), 0, func(ws *nla.Workspace) {
					unm(false, kk, v, t, c2, ws)
				}, sched.RW(h(i2, j2)))
			case recTS:
				v, c1, tsm := rec.v, c.Tile(i1, j1), s.tsm
				g.NeedScratch(kernels.ScratchSizeFor(s.tsmKind, c2.Rows, c2.Cols, kk, bl))
				g.AddTask(s.tsmKind, 0, kernels.Weight(s.tsmKind), 0, func(ws *nla.Workspace) {
					tsm(false, kk, v, t, c1, c2, ws)
				}, sched.RW(h(i1, j1)), sched.RW(h(i2, j2)))
			case recTT:
				v, c1, c2, ttm := s.clip(rec.v, kk), c.Tile(i1, j1), s.clip(c2, kk), s.ttm
				m, n := s.swap(0, across)
				g.NeedScratch(kernels.ScratchSizeFor(s.ttmKind, m, n, kk, bl))
				g.AddTask(s.ttmKind, 0, kernels.Weight(s.ttmKind), 0, func(ws *nla.Workspace) {
					ttm(false, kk, v, t, c1, c2, ws)
				}, sched.RW(h(i1, j1)), sched.RW(h(i2, j2)))
			}
		}
	}
	return g
}
