package kernels

import (
	"github.com/tiled-la/bidiag/internal/nla"
)

// The six factor kernels are two loops: factorQR generates column
// reflectors (GEQRT, TSQRT, TTQRT), factorLQ row reflectors (GELQT,
// TSLQT, TTLQT). Within a family the kernels differ only in which part
// of a tile column (row) carries a reflector's tail, which is what shape
// says. Every O(nb³) pass of either loop is one of the three column-block
// sweeps below, each a thin driver of one 4-wide nla primitive, so the
// factor kernels run on the same Dot4/Axpy4/Gaxpy4 micro-kernels as the
// applies and, like them, never branch on a data value other than
// tau == 0 (H = I, nothing to apply).

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

// triangle narrows the rows of column c a sweep touches.
type triangle int

const (
	fullCols  triangle = iota // every row
	upperCols                 // rows 0..c: an upper triangle
	lowerCols                 // rows c..: a lower triangle
)

// lanes returns the column offsets of lanes 1–3 of the sweep group that
// starts at column c of a block ending at c1. A short last group repeats
// its last column: the repeated lanes of a Dot4 recompute the same sum
// and those of a Gaxpy4 get a zero coefficient, so no sweep needs a
// scalar remainder path.
func lanes(c, c1 int) (k1, k2, k3 int) {
	if g := c1 - c; g < 4 {
		return min(1, g-1), min(2, g-1), g - 1
	}
	return 1, 2, 3
}

// dotCols sets s[c·inc] = x · b(r0:r0+len(x), c) for c0 ≤ c < c1, four
// columns to a Dot4 so that x streams once per group. Under upperCols
// (r0 must be 0) column c is read over its first min(c+1, len(x)) rows
// only: the group shares the rows all four have and the corner is summed
// entry by entry.
func dotCols(x []float64, b *nla.Matrix, r0, c0, c1 int, tri triangle, s []float64, inc int) {
	ld, rows := b.LD, len(x)
	for c := c0; c < c1; c += 4 {
		k1, k2, k3 := lanes(c, c1)
		d, sc := b.Data[r0+c*ld:], s[c*inc:]
		d1, d2, d3 := d[k1*ld:], d[k2*ld:], d[k3*ld:]
		if tri == fullCols {
			sc[0], sc[k1*inc], sc[k2*inc], sc[k3*inc] = nla.Dot4(x, d, d1, d2, d3)
			continue
		}
		l := min(c+1, rows)
		q0, q1, q2, q3 := nla.Dot4(x[:l], d, d1, d2, d3)
		for r := l; r < min(c+k3+1, rows); r++ {
			if r <= c+k1 {
				q1 += x[r] * d1[r]
			}
			if r <= c+k2 {
				q2 += x[r] * d2[r]
			}
			q3 += x[r] * d3[r]
		}
		sc[0], sc[k1*inc], sc[k2*inc], sc[k3*inc] = q0, q1, q2, q3
	}
}

// gaxpyCols accumulates y += Σ v[c·inc]·b(0:len(y), c) over c0 ≤ c < c1,
// four columns to a Gaxpy4 so that y is loaded and stored once per group.
// Under upperCols (lowerCols) column c contributes to rows ≤ c (≥ c) only
// and the rest of it is never read; the corner a group's common rows
// leave out is added entry by entry.
func gaxpyCols(v []float64, inc int, b *nla.Matrix, c0, c1 int, tri triangle, y []float64) {
	ld, rows := b.LD, len(y)
	for c := c0; c < c1; c += 4 {
		k1, k2, k3 := lanes(c, c1)
		d, vc := b.Data[c*ld:], v[c*inc:]
		d1, d2, d3 := d[k1*ld:], d[k2*ld:], d[k3*ld:]
		a0, a1, a2, a3 := vc[0], vc[k1*inc], vc[k2*inc], vc[k3*inc]
		if k3 < 3 { // a lane that repeats its neighbour's column adds nothing
			if k1 == 0 {
				a1 = 0
			}
			if k2 == k1 {
				a2 = 0
			}
			if k3 == k2 {
				a3 = 0
			}
		}
		switch tri {
		case fullCols:
			nla.Gaxpy4(a0, a1, a2, a3, d, d1, d2, d3, y)
		case upperCols:
			hi := min(c+1, rows)
			nla.Gaxpy4(a0, a1, a2, a3, d, d1, d2, d3, y[:hi])
			for r := hi; r < min(c+k3+1, rows); r++ {
				t := a3 * d3[r]
				if r <= c+k2 {
					t += a2 * d2[r]
				}
				if r <= c+k1 {
					t += a1 * d1[r]
				}
				y[r] += t
			}
		case lowerCols:
			lo := min(c+k3, rows)
			nla.Gaxpy4(a0, a1, a2, a3, d[lo:], d1[lo:], d2[lo:], d3[lo:], y[lo:])
			for r := min(c, rows); r < lo; r++ {
				t := a0 * d[r]
				if r >= c+k1 {
					t += a1 * d1[r]
				}
				if r >= c+k2 {
					t += a2 * d2[r]
				}
				y[r] += t
			}
		}
	}
}

// axpyCols subtracts the rank-1 product x·coefᵀ from b(r0:r0+len(x),
// c0:c1): column c loses coef[c·inc]·x, four columns to an Axpy4 so that
// x streams once per group. Destinations cannot be padded, so the up to
// three columns left over are updated one at a time.
func axpyCols(coef []float64, inc int, x []float64, b *nla.Matrix, r0, c0, c1 int) {
	ld := b.LD
	c := c0
	for ; c+4 <= c1; c += 4 {
		d := b.Data[r0+c*ld:]
		nla.Axpy4(-coef[c*inc], -coef[(c+1)*inc], -coef[(c+2)*inc], -coef[(c+3)*inc],
			x, d, d[ld:], d[2*ld:], d[3*ld:])
	}
	for ; c < c1; c++ {
		a := coef[c*inc]
		col := b.Data[r0+c*ld:][:len(x)]
		for r, xv := range x {
			col[r] -= a * xv
		}
	}
}

// tColumn overwrites t(0:j, j) with T(0:j,0:j)·z for the upper triangular
// T held in the leading corner of t, accumulating along T's columns so
// every access is unit stride. The caller folds −tau_j into z (dlarft:
// T(0:j,j) = −tau_j·T·Vᵀv_j) and sets t(j,j) itself.
func tColumn(t *nla.Matrix, j int, z []float64) {
	y := t.Data[j*t.LD : j*t.LD+j]
	clear(y)
	gaxpyCols(z, 1, t, 0, j, upperCols, y)
}

// factorQR is the loop of GEQRT, TSQRT and TTQRT: k column reflectors
// v_j = [e_j; tail_j], with e_j and the pivot in row j of top (R) and
// tail_j in column j of body — top and body are the same tile for
// geShape. After Larfg has turned column j into v_j, one dotCols sweep of
// the tail against every other column of body gives both halves of the
// step: left of j it is column j of VᵀV, which tColumn turns into column
// j of T; right of j it is the w = tau·(vᵀC) of the trailing update,
// which axpyCols applies. Scratch: body.Cols elements.
func factorQR(sh shape, top, body, t *nla.Matrix, k int, tau []float64, ws *nla.Workspace) {
	m, n := body.Rows, body.Cols
	ws, mark := grab(ws)
	s := ws.ScratchVec(n)
	for j := 0; j < k; j++ {
		lo, hi, tri := 0, m, fullCols
		switch sh {
		case geShape:
			lo = j + 1
		case ttShape:
			hi, tri = min(j+1, m), upperCols
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
		dotCols(v, body, lo, 0, j, tri, s, 1)
		dotCols(v, body, lo, j+1, n, fullCols, s, 1)
		for c := 0; c < j; c++ {
			if sh == geShape {
				s[c] += row[c*ld] // v_c's entry in row j against v_j's unit
			}
			s[c] *= -tj
		}
		for c := j + 1; c < n; c++ {
			w := tj * (row[c*ld] + s[c])
			row[c*ld] -= w
			s[c] = w
		}
		axpyCols(s, 1, v, body, lo, j+1, n)
		tColumn(t, j, s[:j])
	}
	ws.Release(mark)
}

// factorLQ is the loop of GELQT, TSLQT and TTLQT, the transpose dual of
// factorQR on the same column-major tiles: k row reflectors with the
// pivot in column i of left (L) and the tail in row i of body. Row i is
// gathered once for Larfg and scattered back; after that nothing walks a
// row. One gaxpyCols sweep y = body·v over every row does what the dot
// sweep does for QR — rows above i are column i of ṼᵀṼ for T, rows below
// are the trailing w — and axpyCols applies the rank-1 update, all along
// columns. Scratch: body.Cols + body.Rows elements.
func factorLQ(sh shape, left, body, t *nla.Matrix, k int, tau []float64, ws *nla.Workspace) {
	m, n := body.Rows, body.Cols
	ws, mark := grab(ws)
	row := ws.ScratchVec(n) // row[c] mirrors body(i, c)
	y := ws.ScratchVec(m)
	for i := 0; i < k; i++ {
		lo, hi, tri := 0, n, fullCols
		switch sh {
		case geShape:
			lo = i + 1
		case ttShape:
			hi, tri = min(i+1, n), lowerCols
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
		gaxpyCols(row, 1, body, lo, hi, tri, y)
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
		axpyCols(row, 1, y[i+1:], body, i+1, lo, hi)
		tColumn(t, i, y[:i])
	}
	ws.Release(mark)
}
