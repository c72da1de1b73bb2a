// Package core implements the paper's primary contribution: the tiled
// bidiagonalization algorithms BIDIAG and R-BIDIAG (GE2BND) as data-flow
// task graphs over the kernels of internal/kernels, with configurable
// reduction trees per QR/LQ step.
//
// BIDIAG executes QR(1);LQ(1);QR(2);…;QR(q) on a p×q tile matrix,
// interleaving row (QR) panel eliminations with column (LQ) panel
// eliminations, producing an upper band-bidiagonal matrix of bandwidth
// NB+1 (diagonal tiles upper triangular, superdiagonal tiles lower
// triangular).
//
// R-BIDIAG first computes a full tiled QR factorization of A, copies the
// R factor into a fresh q×q tile matrix, and bidiagonalizes it starting
// with LQ(1) — the first QR step is skipped because R is already
// triangular, exactly the accounting used in Section IV.B of the paper.
//
// Dependencies are declared at sub-tile granularity: every tile owns three
// handles (diagonal block, strict upper, strict lower), so that — as in
// PLASMA/DPLASMA — the panel factorization of step k can overlap the
// trailing updates that only read the reflector region of the diagonal
// tile. Without this refinement the measured critical paths would not
// match the formulas of Section IV.
package core

import (
	"fmt"

	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
	"github.com/tiled-la/bidiag/internal/trees"
)

// Shape describes the tile geometry of a matrix without requiring its data
// to be materialized, so that the DAGs of very large problems (the paper's
// distributed runs) can be built for simulation only.
type Shape struct {
	M, N, NB int
	P, Q     int
}

// ShapeOf returns the tile geometry for an m×n matrix with tile size nb.
func ShapeOf(m, n, nb int) Shape {
	return Shape{M: m, N: n, NB: nb, P: (m + nb - 1) / nb, Q: (n + nb - 1) / nb}
}

// RowsOf returns the height of tile row i.
func (s Shape) RowsOf(i int) int {
	if i == s.P-1 {
		return s.M - (s.P-1)*s.NB
	}
	return s.NB
}

// ColsOf returns the width of tile column j.
func (s Shape) ColsOf(j int) int {
	if j == s.Q-1 {
		return s.N - (s.Q-1)*s.NB
	}
	return s.NB
}

// Config selects the reduction trees and machine mapping of a build.
type Config struct {
	// Tree is the reduction tree used for every QR and LQ step.
	Tree trees.Kind
	// Gamma and Cores parameterize the AUTO tree (γ·cores target tasks);
	// Gamma defaults to 2 and Cores to 1.
	Gamma, Cores int
	// QRTree, if non-nil, overrides the elimination order of QR step k on
	// the given panel tile-rows; v is the number of trailing tile columns.
	// Used by the distributed hierarchical trees.
	QRTree func(k int, rows []int, v int) []trees.Op
	// LQTree is the column counterpart of QRTree.
	LQTree func(k int, cols []int, v int) []trees.Op
	// Owner maps tile (i, j) to the node that owns it (2D block-cyclic in
	// the distributed experiments). Nil means everything on node 0.
	Owner func(i, j int) int32
	// CoarseDeps disables the sub-tile (diag/upper/lower) dependency
	// regions and tracks whole tiles instead. This exists for the
	// ablation study: with coarse dependencies the panel factorization
	// falsely serializes against the trailing updates that only read the
	// reflector region, and the measured critical paths no longer match
	// Section IV.
	CoarseDeps bool
	// Recorder, when non-nil, records every orthogonal transformation so
	// the Q and P factors can be applied later (singular vectors; see
	// record.go). Requires a real-data build.
	Recorder *Recorder
	// Blocking is the GEMM cache blocking the execution workspaces use
	// (zero value: nla.DefaultBlocking). It also sizes the pack scratch
	// each task declares through sched.Graph.NeedScratch.
	Blocking nla.Blocking
}

func (c Config) gamma() int {
	if c.Gamma <= 0 {
		return 2
	}
	return c.Gamma
}

func (c Config) cores() int {
	if c.Cores <= 0 {
		return 1
	}
	return c.Cores
}

func (c Config) owner(i, j int) int32 {
	if c.Owner == nil {
		return 0
	}
	return c.Owner(i, j)
}

func (c Config) qrOrder(k int, rows []int, v int) []trees.Op {
	if c.QRTree != nil {
		return c.QRTree(k, rows, v)
	}
	return trees.Order(c.Tree, rows, v, c.gamma(), c.cores())
}

func (c Config) lqOrder(k int, cols []int, v int) []trees.Op {
	if c.LQTree != nil {
		return c.LQTree(k, cols, v)
	}
	return trees.Order(c.Tree, cols, v, c.gamma(), c.cores())
}

// region indices within a tile's handle triple.
const (
	regDiag = iota
	regUpper
	regLower
)

// builder emits the tasks of one tiled matrix into a shared graph.
type builder struct {
	g    *sched.Graph
	sh   Shape
	data *tile.Matrix // nil for simulation-only builds
	cfg  *Config
	h    []*sched.Handle // 3 handles per tile, indexed 3*(i + j*P) + region
	rec  *RecStage       // non-nil when recording transformations
}

func newBuilder(g *sched.Graph, sh Shape, data *tile.Matrix, cfg *Config) *builder {
	b := &builder{g: g, sh: sh, data: data, cfg: cfg, h: make([]*sched.Handle, 3*sh.P*sh.Q)}
	g.Blocking = cfg.Blocking
	if cfg.Recorder != nil {
		if data == nil {
			panic("core: recording transformations requires a real-data build")
		}
		b.rec = cfg.Recorder.newStage(sh)
	}
	for j := 0; j < sh.Q; j++ {
		for i := 0; i < sh.P; i++ {
			r, c := sh.RowsOf(i), sh.ColsOf(j)
			owner := cfg.owner(i, j)
			k := min(r, c)
			base := 3 * (i + j*sh.P)
			if cfg.CoarseDeps {
				whole := g.NewHandle(int32(8*r*c), owner)
				if data != nil {
					whole.SetPayload(regionPayload(data.Tile(i, j), regWhole))
					whole.SetRestore(regionRestore(data.Tile(i, j), regWhole))
				}
				b.h[base+regDiag] = whole
				b.h[base+regUpper] = whole
				b.h[base+regLower] = whole
				continue
			}
			half := int32(8 * (r*c - k) / 2)
			b.h[base+regDiag] = g.NewHandle(int32(8*k), owner)
			b.h[base+regUpper] = g.NewHandle(half, owner)
			b.h[base+regLower] = g.NewHandle(half, owner)
			if data != nil {
				tl := data.Tile(i, j)
				b.h[base+regDiag].SetPayload(regionPayload(tl, regDiag))
				b.h[base+regUpper].SetPayload(regionPayload(tl, regUpper))
				b.h[base+regLower].SetPayload(regionPayload(tl, regLower))
				b.h[base+regDiag].SetRestore(regionRestore(tl, regDiag))
				b.h[base+regUpper].SetRestore(regionRestore(tl, regUpper))
				b.h[base+regLower].SetRestore(regionRestore(tl, regLower))
			}
		}
	}
	return b
}

// need declares one task's workspace requirement on the shared graph, so
// the executors can size each worker's arena to the largest kernel.
func (b *builder) need(kind kernels.Kind, m, n, k int) {
	b.g.NeedScratch(kernels.ScratchSizeFor(kind, m, n, k, b.cfg.Blocking))
}

func (b *builder) hd(i, j int) *sched.Handle { return b.h[3*(i+j*b.sh.P)+regDiag] }
func (b *builder) hu(i, j int) *sched.Handle { return b.h[3*(i+j*b.sh.P)+regUpper] }
func (b *builder) hl(i, j int) *sched.Handle { return b.h[3*(i+j*b.sh.P)+regLower] }

// tileAt returns the tile view in real mode, nil in simulation mode.
func (b *builder) tileAt(i, j int) *nla.Matrix {
	if b.data == nil {
		return nil
	}
	return b.data.Tile(i, j)
}

// geqrtOut carries the reflector metadata of a triangularized tile to its
// update kernels in real mode.
type geqrtOut struct {
	t  *nla.Matrix
	th *sched.Handle
	kk int
}

// tfactor registers a factorization kernel's block-reflector factor T as
// a graph handle with payload/restore serializers. In one address space T
// flows to the update kernels through the shared heap, but across
// processes it must ride the wire next to the reflector tile regions —
// without a handle, a remote update would read its own never-written T
// replica. Sim-only builds skip it (the closure holds no matrix there),
// keeping the model graph unchanged.
func (b *builder) tfactor(t *nla.Matrix, owner int32) *sched.Handle {
	h := b.g.NewHandle(int32(8*t.Rows*t.Cols), owner)
	h.SetPayload(regionPayload(t, regWhole))
	h.SetRestore(regionRestore(t, regWhole))
	return h
}

// qrStep emits QR step k: triangularize/eliminate column k over the rows
// rows (ascending, rows[0] is the surviving pivot, normally k itself) and
// apply every transformation to columns k+1..jmax-1.
func (b *builder) qrStep(k int, rows []int, jmax int) {
	sh := b.sh
	w := sh.ColsOf(k)
	ops := b.cfg.qrOrder(k, rows, jmax-k-1)
	if err := trees.Validate(rows, ops); err != nil {
		panic(fmt.Sprintf("core: invalid QR tree at step %d: %v", k, err))
	}

	tri := make(map[int]*geqrtOut, len(rows))
	ensureTri := func(i int) {
		if _, ok := tri[i]; ok {
			return
		}
		out := b.emitGEQRT(k, i, w)
		tri[i] = out
		for j := k + 1; j < jmax; j++ {
			b.emitUNMQR(k, i, j, out)
		}
	}

	if len(rows) == 1 {
		ensureTri(rows[0])
		return
	}
	for _, op := range ops {
		if op.TT {
			ensureTri(op.Piv)
			ensureTri(op.Row)
			b.emitTT(k, op.Piv, op.Row, w, jmax)
		} else {
			ensureTri(op.Piv)
			if _, dense := tri[op.Row]; dense {
				panic(fmt.Sprintf("core: TS elimination of already-triangular row %d at step %d", op.Row, k))
			}
			b.emitTS(k, op.Piv, op.Row, w, jmax)
		}
	}
}

func (b *builder) emitGEQRT(k, i, w int) *geqrtOut {
	sh := b.sh
	m := sh.RowsOf(i)
	kk := min(m, w)
	out := &geqrtOut{kk: kk}
	b.need(kernels.GEQRTKind, m, w, 0)
	var run func(*nla.Workspace)
	if b.data != nil {
		a := b.tileAt(i, k)
		t := nla.NewMatrix(kk, kk)
		tau := make([]float64, kk)
		out.t = t
		out.th = b.tfactor(t, b.cfg.owner(i, k))
		run = func(ws *nla.Workspace) { kernels.GEQRT(a, t, tau, ws) }
		if b.rec != nil {
			b.rec.left = append(b.rec.left, opRec{kind: recGEQRT, row: i, kk: kk, v: a, t: t})
		}
	}
	deps := []sched.Access{sched.RW(b.hd(i, k)), sched.RW(b.hu(i, k)), sched.RW(b.hl(i, k))}
	if out.th != nil {
		deps = append(deps, sched.W(out.th))
	}
	b.g.AddTask(kernels.GEQRTKind, b.cfg.owner(i, k), kernels.Weight(kernels.GEQRTKind),
		kernels.FlopsGEQRT(m, w), run, deps...).SetCoords(i, k, k)
	return out
}

func (b *builder) emitUNMQR(k, i, j int, fac *geqrtOut) {
	sh := b.sh
	m, n := sh.RowsOf(i), sh.ColsOf(j)
	b.need(kernels.UNMQRKind, m, n, fac.kk)
	var run func(*nla.Workspace)
	if b.data != nil {
		v := b.tileAt(i, k)
		c := b.tileAt(i, j)
		t := fac.t
		kk := fac.kk
		run = func(ws *nla.Workspace) { kernels.UNMQR(true, kk, v, t, c, ws) }
	}
	deps := []sched.Access{sched.R(b.hl(i, k))}
	if fac.th != nil {
		deps = append(deps, sched.R(fac.th))
	}
	deps = append(deps, sched.RW(b.hd(i, j)), sched.RW(b.hu(i, j)), sched.RW(b.hl(i, j)))
	b.g.AddTask(kernels.UNMQRKind, b.cfg.owner(i, j), kernels.Weight(kernels.UNMQRKind),
		kernels.FlopsUNMQR(m, n, fac.kk), run, deps...).SetCoords(i, j, k)
}

func (b *builder) emitTS(k, piv, i, w, jmax int) {
	sh := b.sh
	m := sh.RowsOf(i)
	b.need(kernels.TSQRTKind, m, w, 0)
	var tsT *nla.Matrix
	var tsTh *sched.Handle
	var run func(*nla.Workspace)
	if b.data != nil {
		a1 := b.tileAt(piv, k)
		a2 := b.tileAt(i, k)
		tsT = nla.NewMatrix(w, w)
		tsTh = b.tfactor(tsT, b.cfg.owner(i, k))
		tau := make([]float64, w)
		run = func(ws *nla.Workspace) { kernels.TSQRT(a1, a2, tsT, tau, ws) }
		if b.rec != nil {
			b.rec.left = append(b.rec.left, opRec{kind: recTS, piv: piv, row: i, kk: w, v: a2, t: tsT})
		}
	}
	deps := []sched.Access{
		sched.RW(b.hd(piv, k)), sched.RW(b.hu(piv, k)),
		sched.RW(b.hd(i, k)), sched.RW(b.hu(i, k)), sched.RW(b.hl(i, k)),
	}
	if tsTh != nil {
		deps = append(deps, sched.W(tsTh))
	}
	b.g.AddTask(kernels.TSQRTKind, b.cfg.owner(i, k), kernels.Weight(kernels.TSQRTKind),
		kernels.FlopsTSQRT(m, w), run, deps...).SetCoords(i, k, k)

	for j := k + 1; j < jmax; j++ {
		n := sh.ColsOf(j)
		b.need(kernels.TSMQRKind, m, n, w)
		var urun func(*nla.Workspace)
		if b.data != nil {
			v2 := b.tileAt(i, k)
			c1 := b.tileAt(piv, j)
			c2 := b.tileAt(i, j)
			t := tsT
			urun = func(ws *nla.Workspace) { kernels.TSMQR(true, w, v2, t, c1, c2, ws) }
		}
		udeps := []sched.Access{sched.R(b.hd(i, k)), sched.R(b.hu(i, k)), sched.R(b.hl(i, k))}
		if tsTh != nil {
			udeps = append(udeps, sched.R(tsTh))
		}
		udeps = append(udeps,
			sched.RW(b.hd(piv, j)), sched.RW(b.hu(piv, j)), sched.RW(b.hl(piv, j)),
			sched.RW(b.hd(i, j)), sched.RW(b.hu(i, j)), sched.RW(b.hl(i, j)),
		)
		b.g.AddTask(kernels.TSMQRKind, b.cfg.owner(i, j), kernels.Weight(kernels.TSMQRKind),
			kernels.FlopsTSMQR(m, n, w), urun, udeps...).SetCoords(i, j, k)
	}
}

func (b *builder) emitTT(k, piv, i, w, jmax int) {
	sh := b.sh
	b.need(kernels.TTQRTKind, w, w, 0)
	var ttT *nla.Matrix
	var ttTh *sched.Handle
	var run func(*nla.Workspace)
	if b.data != nil {
		a1 := b.tileAt(piv, k)
		a2 := b.tileAt(i, k)
		ttT = nla.NewMatrix(w, w)
		ttTh = b.tfactor(ttT, b.cfg.owner(i, k))
		tau := make([]float64, w)
		run = func(ws *nla.Workspace) {
			kernels.TTQRT(a1.View(0, 0, w, w), a2.View(0, 0, min(a2.Rows, w), w), ttT, tau, ws)
		}
		if b.rec != nil {
			b.rec.left = append(b.rec.left, opRec{kind: recTT, piv: piv, row: i, kk: w, v: a2, t: ttT})
		}
	}
	deps := []sched.Access{
		sched.RW(b.hd(piv, k)), sched.RW(b.hu(piv, k)),
		sched.RW(b.hd(i, k)), sched.RW(b.hu(i, k)),
	}
	if ttTh != nil {
		deps = append(deps, sched.W(ttTh))
	}
	b.g.AddTask(kernels.TTQRTKind, b.cfg.owner(i, k), kernels.Weight(kernels.TTQRTKind),
		kernels.FlopsTTQRT(w), run, deps...).SetCoords(i, k, k)

	for j := k + 1; j < jmax; j++ {
		n := sh.ColsOf(j)
		b.need(kernels.TTMQRKind, 0, n, w)
		var urun func(*nla.Workspace)
		if b.data != nil {
			v2 := b.tileAt(i, k)
			c1 := b.tileAt(piv, j)
			c2 := b.tileAt(i, j)
			t := ttT
			urun = func(ws *nla.Workspace) {
				kernels.TTMQR(true, w, v2.View(0, 0, min(v2.Rows, w), w), t, c1, c2.View(0, 0, min(c2.Rows, w), c2.Cols), ws)
			}
		}
		udeps := []sched.Access{sched.R(b.hd(i, k)), sched.R(b.hu(i, k))}
		if ttTh != nil {
			udeps = append(udeps, sched.R(ttTh))
		}
		udeps = append(udeps,
			sched.RW(b.hd(piv, j)), sched.RW(b.hu(piv, j)), sched.RW(b.hl(piv, j)),
			sched.RW(b.hd(i, j)), sched.RW(b.hu(i, j)), sched.RW(b.hl(i, j)),
		)
		b.g.AddTask(kernels.TTMQRKind, b.cfg.owner(i, j), kernels.Weight(kernels.TTMQRKind),
			kernels.FlopsTTMQR(n, w), urun, udeps...).SetCoords(i, j, k)
	}
}

// lqStep emits LQ step k: triangularize/eliminate row k over the columns
// cols (ascending, cols[0] = k+1 is the surviving pivot) and apply every
// transformation to rows k+1..imax-1.
func (b *builder) lqStep(k int, cols []int, imax int) {
	sh := b.sh
	h := sh.RowsOf(k)
	ops := b.cfg.lqOrder(k, cols, imax-k-1)
	if err := trees.Validate(cols, ops); err != nil {
		panic(fmt.Sprintf("core: invalid LQ tree at step %d: %v", k, err))
	}

	tri := make(map[int]*geqrtOut, len(cols))
	ensureTri := func(j int) {
		if _, ok := tri[j]; ok {
			return
		}
		out := b.emitGELQT(k, j, h)
		tri[j] = out
		for i := k + 1; i < imax; i++ {
			b.emitUNMLQ(k, i, j, out)
		}
	}

	if len(cols) == 1 {
		ensureTri(cols[0])
		return
	}
	for _, op := range ops {
		if op.TT {
			ensureTri(op.Piv)
			ensureTri(op.Row)
			b.emitTTLQ(k, op.Piv, op.Row, h, imax)
		} else {
			ensureTri(op.Piv)
			if _, dense := tri[op.Row]; dense {
				panic(fmt.Sprintf("core: TS elimination of already-triangular column %d at step %d", op.Row, k))
			}
			b.emitTSLQ(k, op.Piv, op.Row, h, imax)
		}
	}
}

func (b *builder) emitGELQT(k, j, h int) *geqrtOut {
	sh := b.sh
	n := sh.ColsOf(j)
	kk := min(h, n)
	out := &geqrtOut{kk: kk}
	b.need(kernels.GELQTKind, h, n, 0)
	var run func(*nla.Workspace)
	if b.data != nil {
		a := b.tileAt(k, j)
		t := nla.NewMatrix(kk, kk)
		tau := make([]float64, kk)
		out.t = t
		out.th = b.tfactor(t, b.cfg.owner(k, j))
		run = func(ws *nla.Workspace) { kernels.GELQT(a, t, tau, ws) }
		if b.rec != nil {
			b.rec.right = append(b.rec.right, opRec{kind: recGELQT, row: j, kk: kk, v: a, t: t})
		}
	}
	deps := []sched.Access{sched.RW(b.hd(k, j)), sched.RW(b.hu(k, j)), sched.RW(b.hl(k, j))}
	if out.th != nil {
		deps = append(deps, sched.W(out.th))
	}
	b.g.AddTask(kernels.GELQTKind, b.cfg.owner(k, j), kernels.Weight(kernels.GELQTKind),
		kernels.FlopsGELQT(h, n), run, deps...).SetCoords(k, j, k)
	return out
}

func (b *builder) emitUNMLQ(k, i, j int, fac *geqrtOut) {
	sh := b.sh
	m, n := sh.RowsOf(i), sh.ColsOf(j)
	b.need(kernels.UNMLQKind, m, n, fac.kk)
	var run func(*nla.Workspace)
	if b.data != nil {
		v := b.tileAt(k, j)
		c := b.tileAt(i, j)
		t := fac.t
		kk := fac.kk
		run = func(ws *nla.Workspace) { kernels.UNMLQ(true, kk, v, t, c, ws) }
	}
	deps := []sched.Access{sched.R(b.hu(k, j))}
	if fac.th != nil {
		deps = append(deps, sched.R(fac.th))
	}
	deps = append(deps, sched.RW(b.hd(i, j)), sched.RW(b.hu(i, j)), sched.RW(b.hl(i, j)))
	b.g.AddTask(kernels.UNMLQKind, b.cfg.owner(i, j), kernels.Weight(kernels.UNMLQKind),
		kernels.FlopsUNMLQ(m, n, fac.kk), run, deps...).SetCoords(i, j, k)
}

func (b *builder) emitTSLQ(k, piv, j, h, imax int) {
	sh := b.sh
	n := sh.ColsOf(j)
	b.need(kernels.TSLQTKind, h, n, 0)
	var tsT *nla.Matrix
	var tsTh *sched.Handle
	var run func(*nla.Workspace)
	if b.data != nil {
		a1 := b.tileAt(k, piv)
		a2 := b.tileAt(k, j)
		tsT = nla.NewMatrix(h, h)
		tsTh = b.tfactor(tsT, b.cfg.owner(k, j))
		tau := make([]float64, h)
		run = func(ws *nla.Workspace) { kernels.TSLQT(a1, a2, tsT, tau, ws) }
		if b.rec != nil {
			b.rec.right = append(b.rec.right, opRec{kind: recTSL, piv: piv, row: j, kk: h, v: a2, t: tsT})
		}
	}
	deps := []sched.Access{
		sched.RW(b.hd(k, piv)), sched.RW(b.hl(k, piv)),
		sched.RW(b.hd(k, j)), sched.RW(b.hu(k, j)), sched.RW(b.hl(k, j)),
	}
	if tsTh != nil {
		deps = append(deps, sched.W(tsTh))
	}
	b.g.AddTask(kernels.TSLQTKind, b.cfg.owner(k, j), kernels.Weight(kernels.TSLQTKind),
		kernels.FlopsTSLQT(h, n), run, deps...).SetCoords(k, j, k)

	for i := k + 1; i < imax; i++ {
		m := sh.RowsOf(i)
		b.need(kernels.TSMLQKind, m, n, h)
		var urun func(*nla.Workspace)
		if b.data != nil {
			v2 := b.tileAt(k, j)
			c1 := b.tileAt(i, piv)
			c2 := b.tileAt(i, j)
			t := tsT
			urun = func(ws *nla.Workspace) { kernels.TSMLQ(true, h, v2, t, c1, c2, ws) }
		}
		udeps := []sched.Access{sched.R(b.hd(k, j)), sched.R(b.hu(k, j)), sched.R(b.hl(k, j))}
		if tsTh != nil {
			udeps = append(udeps, sched.R(tsTh))
		}
		udeps = append(udeps,
			sched.RW(b.hd(i, piv)), sched.RW(b.hu(i, piv)), sched.RW(b.hl(i, piv)),
			sched.RW(b.hd(i, j)), sched.RW(b.hu(i, j)), sched.RW(b.hl(i, j)),
		)
		b.g.AddTask(kernels.TSMLQKind, b.cfg.owner(i, j), kernels.Weight(kernels.TSMLQKind),
			kernels.FlopsTSMLQ(m, n, h), urun, udeps...).SetCoords(i, j, k)
	}
}

func (b *builder) emitTTLQ(k, piv, j, h, imax int) {
	sh := b.sh
	b.need(kernels.TTLQTKind, h, h, 0)
	var ttT *nla.Matrix
	var ttTh *sched.Handle
	var run func(*nla.Workspace)
	if b.data != nil {
		a1 := b.tileAt(k, piv)
		a2 := b.tileAt(k, j)
		ttT = nla.NewMatrix(h, h)
		ttTh = b.tfactor(ttT, b.cfg.owner(k, j))
		tau := make([]float64, h)
		run = func(ws *nla.Workspace) {
			kernels.TTLQT(a1.View(0, 0, h, h), a2.View(0, 0, h, min(a2.Cols, h)), ttT, tau, ws)
		}
		if b.rec != nil {
			b.rec.right = append(b.rec.right, opRec{kind: recTTL, piv: piv, row: j, kk: h, v: a2, t: ttT})
		}
	}
	deps := []sched.Access{
		sched.RW(b.hd(k, piv)), sched.RW(b.hl(k, piv)),
		sched.RW(b.hd(k, j)), sched.RW(b.hl(k, j)),
	}
	if ttTh != nil {
		deps = append(deps, sched.W(ttTh))
	}
	b.g.AddTask(kernels.TTLQTKind, b.cfg.owner(k, j), kernels.Weight(kernels.TTLQTKind),
		kernels.FlopsTTLQT(h), run, deps...).SetCoords(k, j, k)

	for i := k + 1; i < imax; i++ {
		m := sh.RowsOf(i)
		b.need(kernels.TTMLQKind, m, 0, h)
		var urun func(*nla.Workspace)
		if b.data != nil {
			v2 := b.tileAt(k, j)
			c1 := b.tileAt(i, piv)
			c2 := b.tileAt(i, j)
			t := ttT
			urun = func(ws *nla.Workspace) {
				kernels.TTMLQ(true, h, v2.View(0, 0, h, min(v2.Cols, h)), t, c1, c2.View(0, 0, c2.Rows, min(c2.Cols, h)), ws)
			}
		}
		udeps := []sched.Access{sched.R(b.hd(k, j)), sched.R(b.hl(k, j))}
		if ttTh != nil {
			udeps = append(udeps, sched.R(ttTh))
		}
		udeps = append(udeps,
			sched.RW(b.hd(i, piv)), sched.RW(b.hu(i, piv)), sched.RW(b.hl(i, piv)),
			sched.RW(b.hd(i, j)), sched.RW(b.hu(i, j)), sched.RW(b.hl(i, j)),
		)
		b.g.AddTask(kernels.TTMLQKind, b.cfg.owner(i, j), kernels.Weight(kernels.TTMLQKind),
			kernels.FlopsTTMLQ(m, h), urun, udeps...).SetCoords(i, j, k)
	}
}

func rangeInts(lo, hi int) []int {
	r := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		r = append(r, i)
	}
	return r
}

// BuildBidiag emits the BIDIAG GE2BND task graph for a matrix of the given
// shape (p ≥ q tiles). data may be nil for simulation-only builds.
func BuildBidiag(g *sched.Graph, sh Shape, data *tile.Matrix, cfg Config) {
	if sh.M < sh.N {
		panic("core: BIDIAG requires m ≥ n; bidiagonalize the transpose instead")
	}
	b := newBuilder(g, sh, data, &cfg)
	for k := 0; k < sh.Q; k++ {
		b.qrStep(k, rangeInts(k, sh.P), sh.Q)
		if k < sh.Q-1 {
			b.lqStep(k, rangeInts(k+1, sh.Q), sh.P)
		}
	}
}

// qrPhaseConfig returns the configuration used for a full QR factorization
// phase. Unlike the non-overlapping steps of BIDIAG — where the per-panel
// binomial tree is optimal — a multi-panel QR factorization pipelines, so
// the Greedy tree switches to the cross-column pipelined elimination order
// of the HQR literature. An explicit cfg.QRTree always wins.
func qrPhaseConfig(sh Shape, cfg Config) Config {
	if cfg.QRTree == nil && cfg.Tree == trees.Greedy {
		orders := trees.PipelinedGreedyQR(sh.P, sh.Q)
		cfg.QRTree = func(k int, rows []int, v int) []trees.Op {
			if k < len(orders) && len(rows) == sh.P-k {
				return orders[k]
			}
			return trees.Binomial(rows)
		}
	}
	return cfg
}

// BuildQR emits a plain tiled QR factorization (used by R-BIDIAG's
// pre-processing phase and available for callers needing HQR alone).
func BuildQR(g *sched.Graph, sh Shape, data *tile.Matrix, cfg Config) {
	cfg = qrPhaseConfig(sh, cfg)
	b := newBuilder(g, sh, data, &cfg)
	kmax := min(sh.P, sh.Q)
	for k := 0; k < kmax; k++ {
		b.qrStep(k, rangeInts(k, sh.P), sh.Q)
	}
}

// BuildRBidiag emits the R-BIDIAG GE2BND task graph: QR(p,q), extraction
// of the R factor into a fresh q×q tile matrix, then BIDIAG(q,q) starting
// at LQ(1). It returns the shape and (in real mode) the tile matrix that
// holds the band result.
func BuildRBidiag(g *sched.Graph, sh Shape, data *tile.Matrix, cfg Config) (Shape, *tile.Matrix) {
	if sh.M < sh.N {
		panic("core: R-BIDIAG requires m ≥ n")
	}
	qrCfg := qrPhaseConfig(sh, cfg)
	b := newBuilder(g, sh, data, &qrCfg)
	for k := 0; k < sh.Q; k++ {
		b.qrStep(k, rangeInts(k, sh.P), sh.Q)
	}

	rsh := ShapeOf(sh.N, sh.N, sh.NB)
	var rdata *tile.Matrix
	if data != nil {
		rdata = tile.New(sh.N, sh.N, sh.NB)
	}
	rb := newBuilder(g, rsh, rdata, &cfg)

	// Copy the R factor (upper tiles) and zero the lower tiles. These
	// tasks carry no flops and no critical-path weight, matching the
	// paper's accounting, but they do carry the data dependencies that
	// let the bidiagonalization pipeline into the tail of the QR phase.
	for j := 0; j < rsh.Q; j++ {
		for i := 0; i < rsh.P; i++ {
			ri, rj := i, j
			if i <= j {
				var run func(*nla.Workspace)
				if data != nil {
					src := data.Tile(i, j)
					dst := rdata.Tile(i, j)
					rows := rsh.RowsOf(i)
					diag := i == j
					run = func(*nla.Workspace) {
						nla.CopyInto(dst, src.View(0, 0, rows, dst.Cols))
						if diag {
							// The source tile stores Householder vectors
							// below the diagonal; the R factor is zero there.
							for c := 0; c < dst.Cols; c++ {
								for r := c + 1; r < dst.Rows; r++ {
									dst.Set(r, c, 0)
								}
							}
						}
					}
				}
				deps := []sched.Access{sched.R(b.hd(i, j)), sched.R(b.hu(i, j))}
				if i < j {
					// A strictly-upper tile lies entirely inside the global
					// upper triangle: its tile-lower region is R data too,
					// and the copy reads it. (The diagonal tile's lower
					// region holds reflectors, which the copy zeroes
					// without looking at them.)
					deps = append(deps, sched.R(b.hl(i, j)))
				}
				deps = append(deps, sched.W(rb.hd(i, j)), sched.W(rb.hu(i, j)), sched.W(rb.hl(i, j)))
				g.AddTask(kernels.LACPYKind, cfg.owner(i, j), 0, 0, run, deps...).SetCoords(ri, rj, -1)
			} else {
				var run func(*nla.Workspace)
				if data != nil {
					dst := rdata.Tile(i, j)
					run = func(*nla.Workspace) { dst.Zero() }
				}
				g.AddTask(kernels.LASETKind, cfg.owner(i, j), 0, 0, run,
					sched.W(rb.hd(i, j)), sched.W(rb.hu(i, j)), sched.W(rb.hl(i, j)),
				).SetCoords(ri, rj, -1)
			}
		}
	}

	// BIDIAG on the R factor, skipping QR(1).
	if rsh.Q > 1 {
		rb.lqStep(0, rangeInts(1, rsh.Q), rsh.P)
		for k := 1; k < rsh.Q; k++ {
			rb.qrStep(k, rangeInts(k, rsh.P), rsh.Q)
			if k < rsh.Q-1 {
				rb.lqStep(k, rangeInts(k+1, rsh.Q), rsh.P)
			}
		}
	}
	return rsh, rdata
}
