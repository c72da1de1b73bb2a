package core

import (
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

// recKind discriminates the recorded factorization kernels.
type recKind int8

const (
	recGEQRT recKind = iota
	recTS
	recTT
	recGELQT
	recTSL
	recTTL
)

// opRec is one recorded elementary block reflector.
type opRec struct {
	kind     recKind
	piv, row int         // tile rows (QR) or tile columns (LQ); piv unused for GEQRT/GELQT
	kk       int         // reflector count
	v        *nla.Matrix // tile holding the vector tails (valid post-execution)
	t        *nla.Matrix // block reflector factor
}

// RecStage is the recorded transformation product of one matrix phase.
type RecStage struct {
	Sh    Shape
	left  []opRec
	right []opRec
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

// ApplyLeftAll computes E_1ᵀ···E_Kᵀ·[ub; 0] across all stages: ub must be
// n×n where n is the column count of the first-stage matrix; the result
// has the row count of the first stage (the original m). workers selects
// the executor parallelism.
func (r *Recorder) ApplyLeftAll(ub *nla.Matrix, workers int) (*nla.Matrix, error) {
	// Later stages act on smaller (R-factor) spaces: apply them first,
	// then embed into the top block of the preceding stage's row space.
	cur := ub
	for i := len(r.Stages) - 1; i >= 0; i-- {
		st := r.Stages[i]
		c := tile.FromDenseRows(cur, st.Sh.M, st.Sh.NB)
		if err := st.applyLeft(c, workers, r.Blocking); err != nil {
			return nil, err
		}
		cur = c.ToDense()
	}
	return cur, nil
}

// ApplyRightAll computes vbt·F_Lᵀ···F_1ᵀ across all stages; vbt is
// k×n with n the column count of the last stage's matrix.
func (r *Recorder) ApplyRightAll(vbt *nla.Matrix, workers int) (*nla.Matrix, error) {
	nb := r.rightNB()
	if nb == 0 {
		return vbt, nil
	}
	c := tile.FromDense(vbt, nb)
	if err := r.applyRightAll(c, workers); err != nil {
		return nil, err
	}
	return c.ToDense(), nil
}

// ApplyRightAllT is ApplyRightAll on the transposed operand: vb is n×k
// and the result is F_1···F_L·vb, so vectors stored as columns go in and
// come out without a transposed copy on either side.
func (r *Recorder) ApplyRightAllT(vb *nla.Matrix, workers int) (*nla.Matrix, error) {
	nb := r.rightNB()
	if nb == 0 {
		return vb, nil
	}
	c := tile.FromDenseT(vb, nb)
	if err := r.applyRightAll(c, workers); err != nil {
		return nil, err
	}
	return c.ToDenseT(), nil
}

// rightNB returns the tile size of the stages that have a right product,
// 0 when none has one (a single-column input). The stages of one
// Recorder share it, like the column count.
func (r *Recorder) rightNB() int {
	for _, st := range r.Stages {
		if len(st.right) > 0 {
			return st.Sh.NB
		}
	}
	return 0
}

// applyRightAll applies every stage's right product to the tiled k×n
// operand. Right transforms act on the column space, which every stage
// shares (the R copy keeps the full column count), so stages chain
// directly in reverse on the same tiles.
func (r *Recorder) applyRightAll(c *tile.Matrix, workers int) error {
	for i := len(r.Stages) - 1; i >= 0; i-- {
		if st := r.Stages[i]; len(st.right) > 0 {
			if err := st.applyRight(c, workers, r.Blocking); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyLeft applies the stage's left product (no-trans, reverse order) to
// the tiled matrix c, whose row tiling must match the stage shape.
func (st *RecStage) applyLeft(c *tile.Matrix, workers int, bl nla.Blocking) error {
	g := sched.NewGraph()
	g.Blocking = bl
	handles := make([]*sched.Handle, c.P*c.Q)
	for i := range handles {
		handles[i] = g.NewHandle(1, 0)
	}
	h := func(i, j int) *sched.Handle { return handles[i+j*c.P] }
	for idx := len(st.left) - 1; idx >= 0; idx-- {
		rec := st.left[idx]
		for jc := 0; jc < c.Q; jc++ {
			rec, jc := rec, jc
			switch rec.kind {
			case recGEQRT:
				ct := c.Tile(rec.row, jc)
				g.NeedScratch(kernels.ScratchSizeFor(kernels.UNMQRKind, ct.Rows, ct.Cols, rec.kk, g.Blocking))
				g.AddTask(kernels.UNMQRKind, 0, 6, 0, func(ws *nla.Workspace) {
					kernels.UNMQR(false, rec.kk, rec.v.View(0, 0, ct.Rows, rec.kk), rec.t, ct, ws)
				}, sched.RW(h(rec.row, jc)))
			case recTS:
				c1 := c.Tile(rec.piv, jc)
				c2 := c.Tile(rec.row, jc)
				g.NeedScratch(kernels.ScratchSizeFor(kernels.TSMQRKind, c2.Rows, c2.Cols, rec.kk, g.Blocking))
				g.AddTask(kernels.TSMQRKind, 0, 12, 0, func(ws *nla.Workspace) {
					kernels.TSMQR(false, rec.kk, rec.v, rec.t, c1, c2, ws)
				}, sched.RW(h(rec.piv, jc)), sched.RW(h(rec.row, jc)))
			case recTT:
				c1 := c.Tile(rec.piv, jc)
				c2 := c.Tile(rec.row, jc)
				w := rec.kk
				g.NeedScratch(kernels.ScratchSizeFor(kernels.TTMQRKind, 0, c2.Cols, w, g.Blocking))
				g.AddTask(kernels.TTMQRKind, 0, 6, 0, func(ws *nla.Workspace) {
					kernels.TTMQR(false, w,
						rec.v.View(0, 0, min(rec.v.Rows, w), w), rec.t,
						c1, c2.View(0, 0, min(c2.Rows, w), c2.Cols), ws)
				}, sched.RW(h(rec.piv, jc)), sched.RW(h(rec.row, jc)))
			}
		}
	}
	return runGraph(g, workers)
}

// applyRight applies the stage's right product (no-trans, reverse order)
// to the tiled matrix c, whose column tiling must match the stage shape.
func (st *RecStage) applyRight(c *tile.Matrix, workers int, bl nla.Blocking) error {
	g := sched.NewGraph()
	g.Blocking = bl
	handles := make([]*sched.Handle, c.P*c.Q)
	for i := range handles {
		handles[i] = g.NewHandle(1, 0)
	}
	h := func(i, j int) *sched.Handle { return handles[i+j*c.P] }
	for idx := len(st.right) - 1; idx >= 0; idx-- {
		rec := st.right[idx]
		for ic := 0; ic < c.P; ic++ {
			rec, ic := rec, ic
			switch rec.kind {
			case recGELQT:
				ct := c.Tile(ic, rec.row)
				g.NeedScratch(kernels.ScratchSizeFor(kernels.UNMLQKind, ct.Rows, ct.Cols, rec.kk, g.Blocking))
				g.AddTask(kernels.UNMLQKind, 0, 6, 0, func(ws *nla.Workspace) {
					kernels.UNMLQ(false, rec.kk, rec.v.View(0, 0, rec.kk, ct.Cols), rec.t, ct, ws)
				}, sched.RW(h(ic, rec.row)))
			case recTSL:
				c1 := c.Tile(ic, rec.piv)
				c2 := c.Tile(ic, rec.row)
				g.NeedScratch(kernels.ScratchSizeFor(kernels.TSMLQKind, c2.Rows, c2.Cols, rec.kk, g.Blocking))
				g.AddTask(kernels.TSMLQKind, 0, 12, 0, func(ws *nla.Workspace) {
					kernels.TSMLQ(false, rec.kk, rec.v, rec.t, c1, c2, ws)
				}, sched.RW(h(ic, rec.piv)), sched.RW(h(ic, rec.row)))
			case recTTL:
				c1 := c.Tile(ic, rec.piv)
				c2 := c.Tile(ic, rec.row)
				hh := rec.kk
				g.NeedScratch(kernels.ScratchSizeFor(kernels.TTMLQKind, c1.Rows, 0, hh, g.Blocking))
				g.AddTask(kernels.TTMLQKind, 0, 6, 0, func(ws *nla.Workspace) {
					kernels.TTMLQ(false, hh,
						rec.v.View(0, 0, hh, min(rec.v.Cols, hh)), rec.t,
						c1, c2.View(0, 0, c2.Rows, min(c2.Cols, hh)), ws)
				}, sched.RW(h(ic, rec.piv)), sched.RW(h(ic, rec.row)))
			}
		}
	}
	return runGraph(g, workers)
}

func runGraph(g *sched.Graph, workers int) error {
	if workers > 1 {
		return g.RunParallel(workers)
	}
	return g.RunSequential()
}
