package kernels

import (
	"github.com/tiled-la/bidiag/internal/nla"
)

// The six factor kernels are two loops: factorQR generates column
// reflectors (GEQRT, TSQRT, TTQRT), factorLQ row reflectors (GELQT,
// TSLQT, TTLQT). Within a family the kernels differ only in which part
// of a tile column (row) carries a reflector's tail, which is what shape
// says. Every O(nb³) pass of either loop is one of nla's reflector
// sweeps (DotCols, ReflectLeft, GaxpyCols, AxpyCols), each one assembly
// pass over the column groups on the Dot4/Axpy4/Gaxpy4 arithmetic the
// applies use; the band chase runs on the same passes. Like the applies,
// the factor kernels never branch on a data value other than tau == 0
// (H = I, nothing to apply).

// shape locates the tail of reflector j of a factor kernel.
type shape int

const (
	// geShape: the tail is what lies below (QR) or right of (LQ) the
	// diagonal of the factored tile itself, and the unit entry of every
	// later reflector meets the tails of the earlier ones.
	geShape shape = iota
	// tsShape: the tail is all of column (row) j of the second tile.
	tsShape
	// ttShape: the tail is column (row) j of the second tile down to
	// its diagonal; what lies beyond belongs to somebody else.
	ttShape
)

// tColumn overwrites t(0:j, j) with T(0:j,0:j)·z for the upper triangular
// T held in the leading corner of t, accumulating along T's columns so
// every access is unit stride. The caller folds −tau_j into z (dlarft:
// T(0:j,j) = −tau_j·T·Vᵀv_j) and sets t(j,j) itself.
func tColumn(t *nla.Matrix, j int, z []float64) {
	y := t.Data[j*t.LD : j*t.LD+j]
	clear(y)
	nla.GaxpyCols(z, 1, t.Data, t.LD, j, nla.Upper, nla.TailLanes, y)
}

// factorQR is the loop of GEQRT, TSQRT and TTQRT: k column reflectors
// v_j = [e_j; tail_j], with e_j and the pivot in row j of top (R) and
// tail_j in column j of body — top and body are the same tile for
// geShape. After Larfg has turned column j into v_j, the tail is dotted
// with every other column of body: left of j (DotCols) that is column j
// of VᵀV, which tColumn turns into column j of T; right of j it is the
// w = tau·(vᵀC) of the trailing update, which ReflectLeft applies column
// group by column group in the same pass. Scratch: body.Cols elements.
func factorQR(sh shape, top, body, t *nla.Matrix, k int, tau []float64, ws *nla.Workspace) {
	m, n := body.Rows, body.Cols
	ws, mark := grab(ws)
	s := ws.ScratchVec(n)
	for j := 0; j < k; j++ {
		lo, hi, tri := 0, m, nla.Full
		switch sh {
		case geShape:
			lo = j + 1
		case ttShape:
			hi, tri = min(j+1, m), nla.Upper
		}
		v := body.Data[lo+j*body.LD : hi+j*body.LD]
		row, ld := top.Data[j:], top.LD // top(j, c) is row[c*ld]
		beta, tj := nla.Larfg(row[j*ld], v)
		row[j*ld] = beta
		tau[j] = tj
		tc := t.Data[j*t.LD : j*t.LD+j+1]
		tc[j] = tj
		if tj == 0 {
			clear(tc[:j])
			continue
		}
		nla.DotCols(v, body.Data[lo:], body.LD, j, tri, s, 1)
		for c := 0; c < j; c++ {
			if sh == geShape {
				s[c] += row[c*ld] // v_c's entry in row j against v_j's unit
			}
			s[c] *= -tj
		}
		if j+1 < n {
			nla.ReflectLeft(tj, v, row[(j+1)*ld:], ld, body.Data[lo+(j+1)*body.LD:], body.LD, n-j-1, nla.TailLanes)
		}
		tColumn(t, j, s[:j])
	}
	ws.Release(mark)
}

// factorLQ is the loop of GELQT, TSLQT and TTLQT, the transpose dual of
// factorQR on the same column-major tiles: k row reflectors with the
// pivot in column i of left (L) and the tail in row i of body. Row i is
// gathered once for Larfg and scattered back; after that nothing walks a
// row. One GaxpyCols sweep y = body·v over every row does what the dot
// sweep does for QR — rows above i are column i of ṼᵀṼ for T, rows below
// are the trailing w — and AxpyCols applies the rank-1 update, all along
// columns. Scratch: body.Cols + body.Rows elements.
func factorLQ(sh shape, left, body, t *nla.Matrix, k int, tau []float64, ws *nla.Workspace) {
	m, n := body.Rows, body.Cols
	ws, mark := grab(ws)
	row := ws.ScratchVec(n) // row[c] mirrors body(i, c)
	y := ws.ScratchVec(m)
	for i := 0; i < k; i++ {
		lo, hi, tri := 0, n, nla.Full
		switch sh {
		case geShape:
			lo = i + 1
		case ttShape:
			hi, tri = min(i+1, n), nla.Lower
		}
		for c := lo; c < hi; c++ {
			row[c] = body.Data[i+c*body.LD]
		}
		piv := left.Data[i*left.LD : i*left.LD+m] // column i of left
		beta, ti := nla.Larfg(piv[i], row[lo:hi])
		piv[i] = beta
		for c := lo; c < hi; c++ {
			body.Data[i+c*body.LD] = row[c]
		}
		tau[i] = ti
		tc := t.Data[i*t.LD : i*t.LD+i+1]
		tc[i] = ti
		if ti == 0 {
			clear(tc[:i])
			continue
		}
		clear(y)
		nla.GaxpyCols(row[lo:hi], 1, body.Data[lo*body.LD:], body.LD, hi-lo, tri, nla.TailLanes, y)
		for r := 0; r < i; r++ {
			if sh == geShape {
				y[r] += piv[r] // v_r's entry in column i against v_i's unit
			}
			y[r] *= -ti
		}
		for r := i + 1; r < m; r++ {
			w := ti * (piv[r] + y[r])
			piv[r] -= w
			y[r] = w
		}
		nla.AxpyCols(1, row[lo:hi], 1, y[i+1:], body.Data[i+1+lo*body.LD:], body.LD, hi-lo)
		tColumn(t, i, y[:i])
	}
	ws.Release(mark)
}
