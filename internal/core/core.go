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
//
// The two step types are built by one path. Section IV prices an LQ step
// as the QR step of the transposed panel, LQ1step(u, v) = QR1step(v, u),
// and the builder takes that literally: a side descriptor (qrSide,
// lqSide) holds each step type's six kernel kinds and functions, the
// (i, j) swap that maps step coordinates to tiles, which strict triangle
// a factorization keeps and which holds its reflectors, and the recorded
// list it appends to. step and its four emitters (factor, UNM, TS, TT)
// then serve both, as RecStage.apply serves the left and right replays.
// The tile kernels stay separate because their memory access is row- or
// column-oriented.
//
// A real-data build's tasks close over its tiles and T factors, so its
// graph runs again on whatever the tiles hold (internal/pipeline's
// templates). Only an owner-compute build's handles (Config.Owner) carry
// tile serializers: its ranks snapshot and restore them.
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

// order returns the elimination order of step k of side s over the panel
// tiles; v is the number of trailing tiles each elimination updates.
func (c Config) order(s *side, k int, panel []int, v int) []trees.Op {
	custom := c.QRTree
	if s.t {
		custom = c.LQTree
	}
	if custom != nil {
		return custom(k, panel, v)
	}
	return trees.Order(c.Tree, panel, v, c.gamma(), c.cores())
}

// region indices within a tile's handle triple.
const (
	regDiag = iota
	regUpper
	regLower
)

// A side is one of the two step types (see the package doc). Step tile
// (r, c) is matrix tile (r, c) on the QR side and (c, r) on the LQ side:
// r runs over the panel a step factors, c over the trailing tiles it
// updates. A tile's extent along the reflectors (rows for QR) is "along",
// the other "across"; flops are the QR formulas on (along, across)
// extents, which is how kernels defines the LQ ones.
type side struct {
	t bool // step tile (r, c) is matrix tile (c, r)
	// tri is the strict triangle a factorization keeps (R above the
	// diagonal for QR, L below it for LQ); refl, the other one, holds the
	// reflectors of a factored tile.
	tri, refl int
	rec       int // index of the recorded list in RecStage.ops

	geKind, unmKind, tsKind, tsmKind, ttKind, ttmKind kernels.Kind

	ge       func(a, t *nla.Matrix, tau []float64, ws *nla.Workspace)
	unm      func(trans bool, k int, v, t, c *nla.Matrix, ws *nla.Workspace)
	ts, tt   func(a1, a2, t *nla.Matrix, tau []float64, ws *nla.Workspace)
	tsm, ttm func(trans bool, k int, v2, t, c1, c2 *nla.Matrix, ws *nla.Workspace)
}

var (
	qrSide = &side{tri: regUpper, refl: regLower, rec: 0,
		geKind: kernels.GEQRTKind, unmKind: kernels.UNMQRKind, tsKind: kernels.TSQRTKind,
		tsmKind: kernels.TSMQRKind, ttKind: kernels.TTQRTKind, ttmKind: kernels.TTMQRKind,
		ge: kernels.GEQRT, unm: kernels.UNMQR, ts: kernels.TSQRT, tsm: kernels.TSMQR, tt: kernels.TTQRT, ttm: kernels.TTMQR}
	lqSide = &side{t: true, tri: regLower, refl: regUpper, rec: 1,
		geKind: kernels.GELQTKind, unmKind: kernels.UNMLQKind, tsKind: kernels.TSLQTKind,
		tsmKind: kernels.TSMLQKind, ttKind: kernels.TTLQTKind, ttmKind: kernels.TTMLQKind,
		ge: kernels.GELQT, unm: kernels.UNMLQ, ts: kernels.TSLQT, tsm: kernels.TSMLQ, tt: kernels.TTLQT, ttm: kernels.TTMLQ}
)

// String names the step type in panics.
func (s *side) String() string {
	if s.t {
		return "LQ"
	}
	return "QR"
}

// swap maps step tile (r, c) to its matrix tile and converts between
// (rows, cols) and (along, across); it is its own inverse.
func (s *side) swap(x, y int) (int, int) {
	if s.t {
		return y, x
	}
	return x, y
}

// view returns the top-left along × across part of m.
func (s *side) view(m *nla.Matrix, along, across int) *nla.Matrix {
	r, c := s.swap(along, across)
	return m.View(0, 0, r, c)
}

// clip cuts m to at most w along the reflectors: the part a TT kernel
// touches.
func (s *side) clip(m *nla.Matrix, w int) *nla.Matrix {
	along, across := s.swap(m.Rows, m.Cols)
	return s.view(m, min(along, w), across)
}

// builder emits the tasks of one tiled matrix into a shared graph.
type builder struct {
	g    *sched.Graph
	sh   Shape
	data *tile.Matrix // nil for simulation-only builds
	cfg  *Config
	h    []*sched.Handle // 3 handles per tile, indexed 3*(i + j*P) + region
	rec  *RecStage       // non-nil when recording transformations
	acc  []sched.Access  // the access list of the task being emitted
}

func newBuilder(g *sched.Graph, sh Shape, data *tile.Matrix, cfg *Config) *builder {
	b := &builder{g: g, sh: sh, data: data, cfg: cfg, h: make([]*sched.Handle, 3*sh.P*sh.Q),
		acc: make([]sched.Access, 0, 16)}
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
			half := int32(8 * (r*c - k) / 2)
			b.h[base+regDiag] = g.NewHandle(int32(8*k), owner)
			b.h[base+regUpper] = g.NewHandle(half, owner)
			b.h[base+regLower] = g.NewHandle(half, owner)
			if data != nil && cfg.Owner != nil {
				tl := data.Tile(i, j)
				for reg := regDiag; reg <= regLower; reg++ {
					b.h[base+reg].SetPayload(regionPayload(tl, reg))
					b.h[base+reg].SetRestore(regionRestore(tl, reg))
				}
			}
		}
	}
	return b
}

// tile returns the matrix tile of step tile (r, c) and its extents.
func (b *builder) tile(s *side, r, c int) (i, j, along, across int) {
	i, j = s.swap(r, c)
	along, across = s.swap(b.sh.RowsOf(i), b.sh.ColsOf(j))
	return i, j, along, across
}

// need declares one task's workspace requirement on the shared graph, so
// the executors can size each worker's arena to the largest kernel.
func (b *builder) need(s *side, kind kernels.Kind, along, across, k int) {
	m, n := s.swap(along, across)
	b.g.NeedScratch(kernels.ScratchSizeFor(kind, m, n, k, b.cfg.Blocking))
}

// at returns the handle of one region of matrix tile (i, j).
func (b *builder) at(i, j, region int) *sched.Handle { return b.h[3*(i+j*b.sh.P)+region] }

// use appends accesses to regions of matrix tile (i, j) to the access
// list; a task names a whole tile as diagonal, upper, lower on both sides.
func (b *builder) use(mode sched.AccessMode, i, j int, regions ...int) {
	for _, reg := range regions {
		b.acc = append(b.acc, sched.Access{H: b.at(i, j, reg), Mode: mode})
	}
}

func (b *builder) whole(mode sched.AccessMode, i, j int) {
	b.use(mode, i, j, regDiag, regUpper, regLower)
}

// useT appends an access to a T factor's handle (nil in simulation-only
// builds).
func (b *builder) useT(mode sched.AccessMode, th *sched.Handle) {
	if th != nil {
		b.acc = append(b.acc, sched.Access{H: th, Mode: mode})
	}
}

// add submits a task on matrix tile (i, j) at step k with the access list,
// then empties the list.
func (b *builder) add(kind kernels.Kind, i, j, k int, flops float64, run func(*nla.Workspace)) {
	b.g.AddTask(kind, b.cfg.owner(i, j), kernels.Weight(kind), flops, run, b.acc...).SetCoords(i, j, k)
	b.acc = b.acc[:0]
}

func (b *builder) record(s *side, op opRec) {
	if b.rec != nil {
		b.rec.ops[s.rec] = append(b.rec.ops[s.rec], op)
	}
}

// factor carries the reflector metadata of a triangularized tile to its
// update kernels in real mode.
type factor struct {
	t  *nla.Matrix
	th *sched.Handle
	kk int
}

// tfactor carves a factorization kernel's k×k block-reflector factor T
// and its tau from the job's arena (the one the tiles came from), and
// registers T as a graph handle, serialized on owner-compute builds. The
// memory starts uninitialized: the kernel writes tau and T's upper
// triangle, and nothing reads T's strict lower triangle. In one address
// space T flows to the update kernels through the shared heap, but across
// processes it must ride the wire next to the reflector tile regions —
// without a handle, a remote update would read its own never-written T
// replica. Sim-only builds skip it (the closure holds no matrix there),
// keeping the model graph unchanged.
func (b *builder) tfactor(k int, owner int32) (*nla.Matrix, []float64, *sched.Handle) {
	ar := b.data.Arena()
	t := ar.Matrix(k, k)
	h := b.g.NewHandle(int32(8*k*k), owner)
	if b.cfg.Owner != nil {
		h.SetPayload(regionPayload(t, regWhole))
		h.SetRestore(regionRestore(t, regWhole))
	}
	return t, ar.Vec(k), h
}

// step emits step k of side s: triangularize/eliminate step column k over
// the panel tiles (ascending, panel[0] is the surviving pivot) and apply
// every transformation to step columns k+1..lim-1. On the QR side the
// panel is tile rows k.. and the trailing tiles are columns; on the LQ
// side the panel is tile columns k+1.. and the trailing tiles are rows.
func (b *builder) step(s *side, k int, panel []int, lim int) {
	_, _, _, w := b.tile(s, panel[0], k)
	ops := b.cfg.order(s, k, panel, lim-k-1)
	if err := trees.Validate(panel, ops); err != nil {
		panic(fmt.Sprintf("core: invalid %v tree at step %d: %v", s, k, err))
	}

	tri := make(map[int]factor, len(panel))
	ensureTri := func(r int) {
		if _, ok := tri[r]; ok {
			return
		}
		out := b.emitFactor(s, k, r)
		tri[r] = out
		for c := k + 1; c < lim; c++ {
			b.emitUNM(s, k, r, c, out)
		}
	}

	if len(panel) == 1 {
		ensureTri(panel[0])
		return
	}
	for _, op := range ops {
		ensureTri(op.Piv)
		if op.TT {
			ensureTri(op.Row)
			b.emitTT(s, k, op.Piv, op.Row, w, lim)
		} else {
			if _, dense := tri[op.Row]; dense {
				panic(fmt.Sprintf("core: %v TS elimination of already-triangular panel tile %d at step %d", s, op.Row, k))
			}
			b.emitTS(s, k, op.Piv, op.Row, w, lim)
		}
	}
}

// emitFactor triangularizes step tile (r, k).
func (b *builder) emitFactor(s *side, k, r int) factor {
	i, j, m, w := b.tile(s, r, k)
	out := factor{kk: min(m, w)}
	b.need(s, s.geKind, m, w, 0)
	var run func(*nla.Workspace)
	if b.data != nil {
		a := b.data.Tile(i, j)
		t, tau, th := b.tfactor(out.kk, b.cfg.owner(i, j))
		out.t, out.th = t, th
		ge := s.ge
		run = func(ws *nla.Workspace) { ge(a, t, tau, ws) }
		b.record(s, opRec{kind: recFactor, row: r, kk: out.kk, v: a, t: t})
	}
	b.whole(sched.ReadWrite, i, j)
	b.useT(sched.WriteOnly, out.th)
	b.add(s.geKind, i, j, k, kernels.FlopsGEQRT(m, w), run)
	return out
}

// emitUNM applies the factor of step tile (r, k) to step tile (r, c).
func (b *builder) emitUNM(s *side, k, r, c int, fac factor) {
	pi, pj := s.swap(r, k)
	i, j, m, n := b.tile(s, r, c)
	b.need(s, s.unmKind, m, n, fac.kk)
	var run func(*nla.Workspace)
	if b.data != nil {
		v, cc := b.data.Tile(pi, pj), b.data.Tile(i, j)
		t, kk, unm := fac.t, fac.kk, s.unm
		run = func(ws *nla.Workspace) { unm(true, kk, v, t, cc, ws) }
	}
	b.use(sched.Read, pi, pj, s.refl)
	b.useT(sched.Read, fac.th)
	b.whole(sched.ReadWrite, i, j)
	b.add(s.unmKind, i, j, k, kernels.FlopsUNMQR(m, n, fac.kk), run)
}

// emitTS eliminates the square step tile (r, k) against the triangle of
// (piv, k) and applies the transformation to step columns k+1..lim-1.
func (b *builder) emitTS(s *side, k, piv, r, w, lim int) {
	pi, pj := s.swap(piv, k)
	i, j, m, _ := b.tile(s, r, k)
	b.need(s, s.tsKind, m, w, 0)
	var t *nla.Matrix
	var th *sched.Handle
	var run func(*nla.Workspace)
	if b.data != nil {
		a1, a2 := b.data.Tile(pi, pj), b.data.Tile(i, j)
		var tau []float64
		t, tau, th = b.tfactor(w, b.cfg.owner(i, j))
		ts := s.ts
		run = func(ws *nla.Workspace) { ts(a1, a2, t, tau, ws) }
		b.record(s, opRec{kind: recTS, piv: piv, row: r, kk: w, v: a2, t: t})
	}
	b.use(sched.ReadWrite, pi, pj, regDiag, s.tri)
	b.whole(sched.ReadWrite, i, j)
	b.useT(sched.WriteOnly, th)
	b.add(s.tsKind, i, j, k, kernels.FlopsTSQRT(m, w), run)

	for c := k + 1; c < lim; c++ {
		i1, j1 := s.swap(piv, c)
		i2, j2, m, n := b.tile(s, r, c)
		b.need(s, s.tsmKind, m, n, w)
		var urun func(*nla.Workspace)
		if b.data != nil {
			v2, c1, c2 := b.data.Tile(i, j), b.data.Tile(i1, j1), b.data.Tile(i2, j2)
			tsm := s.tsm
			urun = func(ws *nla.Workspace) { tsm(true, w, v2, t, c1, c2, ws) }
		}
		b.whole(sched.Read, i, j)
		b.useT(sched.Read, th)
		b.whole(sched.ReadWrite, i1, j1)
		b.whole(sched.ReadWrite, i2, j2)
		b.add(s.tsmKind, i2, j2, k, kernels.FlopsTSMQR(m, n, w), urun)
	}
}

// emitTT eliminates the triangle of step tile (r, k) against the triangle
// of (piv, k) and applies the transformation to step columns k+1..lim-1.
// The kernels see views cut at build time: a view made inside a run
// closure and passed to a kernel through s would escape, one allocation
// per run.
func (b *builder) emitTT(s *side, k, piv, r, w, lim int) {
	pi, pj := s.swap(piv, k)
	i, j := s.swap(r, k)
	b.need(s, s.ttKind, w, w, 0)
	var t, v2 *nla.Matrix
	var th *sched.Handle
	var run func(*nla.Workspace)
	if b.data != nil {
		a1, a2 := s.view(b.data.Tile(pi, pj), w, w), b.data.Tile(i, j)
		v2 = s.clip(a2, w)
		var tau []float64
		t, tau, th = b.tfactor(w, b.cfg.owner(i, j))
		tt := s.tt
		run = func(ws *nla.Workspace) { tt(a1, v2, t, tau, ws) }
		b.record(s, opRec{kind: recTT, piv: piv, row: r, kk: w, v: a2, t: t})
	}
	b.use(sched.ReadWrite, pi, pj, regDiag, s.tri)
	b.use(sched.ReadWrite, i, j, regDiag, s.tri)
	b.useT(sched.WriteOnly, th)
	b.add(s.ttKind, i, j, k, kernels.FlopsTTQRT(w), run)

	for c := k + 1; c < lim; c++ {
		i1, j1 := s.swap(piv, c)
		i2, j2, _, n := b.tile(s, r, c)
		b.need(s, s.ttmKind, 0, n, w)
		var urun func(*nla.Workspace)
		if b.data != nil {
			c1, c2 := b.data.Tile(i1, j1), s.clip(b.data.Tile(i2, j2), w)
			ttm := s.ttm
			urun = func(ws *nla.Workspace) { ttm(true, w, v2, t, c1, c2, ws) }
		}
		b.use(sched.Read, i, j, regDiag, s.tri)
		b.useT(sched.Read, th)
		b.whole(sched.ReadWrite, i1, j1)
		b.whole(sched.ReadWrite, i2, j2)
		b.add(s.ttmKind, i2, j2, k, kernels.FlopsTTMQR(n, w), urun)
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
	newBuilder(g, sh, data, &cfg).bidiag(0)
}

// bidiag emits QR(k); LQ(k) for k = 0..q-1, except the QR steps before
// step first.
func (b *builder) bidiag(first int) {
	for k := 0; k < b.sh.Q; k++ {
		if k >= first {
			b.step(qrSide, k, rangeInts(k, b.sh.P), b.sh.Q)
		}
		if k < b.sh.Q-1 {
			b.step(lqSide, k, rangeInts(k+1, b.sh.Q), b.sh.P)
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
	buildQR(g, sh, data, cfg)
}

func buildQR(g *sched.Graph, sh Shape, data *tile.Matrix, cfg Config) *builder {
	cfg = qrPhaseConfig(sh, cfg)
	b := newBuilder(g, sh, data, &cfg)
	for k := 0; k < min(sh.P, sh.Q); k++ {
		b.step(qrSide, k, rangeInts(k, sh.P), sh.Q)
	}
	return b
}

// BuildRBidiag emits the R-BIDIAG GE2BND task graph: QR(p,q), extraction
// of the R factor into a fresh q×q tile matrix, then BIDIAG(q,q) starting
// at LQ(1). It returns the shape and (in real mode) the tile matrix that
// holds the band result.
func BuildRBidiag(g *sched.Graph, sh Shape, data *tile.Matrix, cfg Config) (Shape, *tile.Matrix) {
	if sh.M < sh.N {
		panic("core: R-BIDIAG requires m ≥ n")
	}
	b := buildQR(g, sh, data, cfg)

	rsh := ShapeOf(sh.N, sh.N, sh.NB)
	var rdata *tile.Matrix
	if data != nil {
		// Uninitialized: the LACPY and LASET tasks below write every tile
		// whole before anything reads it.
		rdata = tile.NewIn(data.Arena(), sh.N, sh.N, sh.NB)
	}
	rb := newBuilder(g, rsh, rdata, &cfg)

	// Copy the R factor (upper tiles) and zero the lower tiles. These
	// tasks carry no flops and no critical-path weight, matching the
	// paper's accounting, but they do carry the data dependencies that
	// let the bidiagonalization pipeline into the tail of the QR phase.
	for j := 0; j < rsh.Q; j++ {
		for i := 0; i < rsh.P; i++ {
			var run func(*nla.Workspace)
			kind := kernels.LASETKind
			if i <= j {
				kind = kernels.LACPYKind
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
				// A strictly-upper tile lies entirely inside the global
				// upper triangle: its tile-lower region is R data too, and
				// the copy reads it. (The diagonal tile's lower region
				// holds reflectors, which the copy zeroes without looking
				// at them.)
				rb.acc = append(rb.acc, sched.R(b.at(i, j, regDiag)), sched.R(b.at(i, j, regUpper)))
				if i < j {
					rb.acc = append(rb.acc, sched.R(b.at(i, j, regLower)))
				}
			} else if data != nil {
				dst := rdata.Tile(i, j)
				run = func(*nla.Workspace) { dst.Zero() }
			}
			rb.whole(sched.WriteOnly, i, j)
			rb.add(kind, i, j, -1, 0, run)
		}
	}

	// BIDIAG on the R factor, skipping QR(1).
	rb.bidiag(1)
	return rsh, rdata
}
