package nla

// Level-2 reflector sweeps: the passes a Householder reflector makes over
// the columns of a block, shared by the tile factor kernels
// (internal/kernels) and the band chase (internal/band). A block is k
// columns b[c·ldb : c·ldb+rows] of a flat slice, so a tile, a view of one
// and the band's diagonal layout (consecutive columns ld−1 apart) are all
// the same argument. Columns go four at a time through the Dot4, Axpy4
// and Gaxpy4 arithmetic; Tail says what happens to the k mod 4 after the
// last full group, which is the one place the callers differ.
//
// Where useAVX2 holds each sweep is one assembly pass (reflect_amd64.s)
// that walks the column groups itself and repeats, element by element,
// the operation sequence of its Go composition below; the compositions
// stay as the portable path and as the tests' reference. On AVX-512
// hardware the passes' row loops take eight rows per register (zmmRows)
// with the same bits. Every column's result depends on that column, the
// vector and the group boundaries only, so a pass may finish one group
// before it starts the next.

// zmmRows puts the passes' row loops on 512-bit registers, where the
// packed GEMM runs its AVX-512 kernel (and so not under the noavx512
// tag). Each row of a Dot4, Axpy4 or Gaxpy4 sees the same operations in
// the same order on either width, so the choice changes no bit.
var zmmRows = useAVX2 && activeGemm == gemmAVX512

// Tri narrows the rows of column c a sweep touches.
type Tri uint8

const (
	Full  Tri = iota // every row
	Upper            // rows 0..c: an upper triangle
	Lower            // rows c..: a lower triangle
)

// Tail says how a sweep treats the columns after its last full group of
// four.
type Tail uint8

const (
	// TailLanes runs them as one more group whose missing lanes repeat
	// its last column: a repeated Dot4 lane recomputes the same sum, a
	// repeated Gaxpy4 lane adds with a zero coefficient. The factor
	// kernels' form.
	TailLanes Tail = iota
	// TailSeq runs them one column at a time: a sequential Dot, and
	// y += a·x as a rounded product then an add. The band chase's form.
	TailSeq
)

// lanes returns the column offsets of lanes 1–3 of the group that starts
// at column c of a block of k columns: a short last group repeats its
// last column.
func lanes(c, k int) (k1, k2, k3 int) {
	if g := k - c; g < 4 {
		return min(1, g-1), min(2, g-1), g - 1
	}
	return 1, 2, 3
}

// DotCols sets s[c·inc] = x · b(0:len(x), c) for c < k, four columns to a
// Dot4 so that x streams once per group, the short last group as
// TailLanes. tri is Full or Upper; under Upper column c is read over its
// first min(c+1, len(x)) rows only: a group shares the rows all four
// have and its corner is summed entry by entry, a rounded product then
// an add.
func DotCols(x, b []float64, ldb, k int, tri Tri, s []float64, inc int) {
	n := len(x)
	if k <= 0 {
		return
	}
	_ = s[(k-1)*inc]
	if n > 0 {
		rows := n
		if tri == Upper {
			rows = min(k, n)
		}
		_ = b[(k-1)*ldb+rows-1]
	}
	if useAVX2 {
		dotcolsasm(n, k, &nonEmpty(x)[0], &nonEmpty(b)[0], ldb, &s[0], inc, tri == Upper)
		return
	}
	dotColsGo(x, b, ldb, k, tri, s, inc)
}

// GaxpyCols accumulates y += Σ a[c·inc]·b(0:len(y), c) over c < k, four
// columns to a Gaxpy4 so that y is loaded and stored once per group.
// Under Upper (Lower) column c adds to rows ≤ c (≥ c) only and the rest
// of it is never read; the corner a group's common rows leave out is
// added entry by entry. Upper and Lower take TailLanes only.
func GaxpyCols(a []float64, inc int, b []float64, ldb, k int, tri Tri, tail Tail, y []float64) {
	n := len(y)
	if k <= 0 || n == 0 {
		return
	}
	if tri != Full && tail != TailLanes {
		panic("nla: GaxpyCols: a triangle takes TailLanes")
	}
	_ = a[(k-1)*inc]
	rows := n
	if tri == Upper {
		rows = min(k, n)
	}
	_ = b[(k-1)*ldb+rows-1]
	if useAVX2 {
		mode := int(tri)
		if tail == TailSeq {
			mode = 3
		}
		gaxpycolsasm(n, k, &a[0], inc, &b[0], ldb, &y[0], mode)
		return
	}
	gaxpyColsGo(a, inc, b, ldb, k, tri, tail, y)
}

// AxpyCols subtracts the rank-1 product x·(alpha·a)ᵀ from b(0:len(x),
// 0:k): column c loses (alpha·a[c·inc])·x, four columns to an Axpy4 so
// that x streams once per group. Destinations cannot be padded, so the
// up to three columns left over lose a rounded product each.
func AxpyCols(alpha float64, a []float64, inc int, x, b []float64, ldb, k int) {
	n := len(x)
	if k <= 0 || n == 0 {
		return
	}
	_ = a[(k-1)*inc]
	_ = b[(k-1)*ldb+n-1]
	if useAVX2 {
		axpycolsasm(n, k, alpha, &a[0], inc, &x[0], &b[0], ldb)
		return
	}
	axpyColsGo(alpha, a, inc, x, b, ldb, k)
}

// ReflectLeft applies H = I − tau·[1; v]·[1; v]ᵀ from the left to k
// columns, column c being the unit row's entry top[c·ldt] over
// b(0:len(v), c): w = tau·(top + v·b_c), top −= w, b_c −= w·v. Groups
// of four columns take a Dot4 and an Axpy4; the columns left over take
// a Dot4 with repeated lanes (TailLanes) or a sequential Dot (TailSeq),
// and lose a rounded product per entry either way. Columns are
// independent, so this is the dot sweep, the w step and the rank-1
// update of every column, one group at a time.
func ReflectLeft(tau float64, v, top []float64, ldt int, b []float64, ldb, k int, tail Tail) {
	n := len(v)
	if k <= 0 {
		return
	}
	_ = top[(k-1)*ldt]
	if n > 0 {
		_ = b[(k-1)*ldb+n-1]
	}
	if useAVX2 {
		reflectleftasm(n, k, tau, &nonEmpty(v)[0], &top[0], ldt, &nonEmpty(b)[0], ldb, tail == TailSeq)
		return
	}
	reflectLeftGo(tau, v, top, ldt, b, ldb, k, tail)
}

// nonEmpty returns v, or a one-element slice when v is empty, so that
// &nonEmpty(v)[0] is a valid pointer for a pass that reads none of it
// (a vector of length 0 reads neither itself nor the block).
func nonEmpty(v []float64) []float64 {
	if len(v) == 0 {
		return zero1[:]
	}
	return v
}

var zero1 [1]float64

// dotColsGo is DotCols as Dot4 calls per group.
func dotColsGo(x, b []float64, ldb, k int, tri Tri, s []float64, inc int) {
	rows := len(x)
	for c := 0; c < k; c += 4 {
		k1, k2, k3 := lanes(c, k)
		d := b[c*ldb:]
		d1, d2, d3 := d[k1*ldb:], d[k2*ldb:], d[k3*ldb:]
		if tri != Upper {
			s[c*inc], s[(c+k1)*inc], s[(c+k2)*inc], s[(c+k3)*inc] = Dot4(x, d, d1, d2, d3)
			continue
		}
		l := min(c+1, rows)
		q0, q1, q2, q3 := Dot4(x[:l], d, d1, d2, d3)
		for r := l; r < min(c+k3+1, rows); r++ {
			if r <= c+k1 {
				q1 += float64(x[r] * d1[r])
			}
			if r <= c+k2 {
				q2 += float64(x[r] * d2[r])
			}
			q3 += float64(x[r] * d3[r])
		}
		s[c*inc], s[(c+k1)*inc], s[(c+k2)*inc], s[(c+k3)*inc] = q0, q1, q2, q3
	}
}

// gaxpyColsGo is GaxpyCols as Gaxpy4 calls per group.
func gaxpyColsGo(a []float64, inc int, b []float64, ldb, k int, tri Tri, tail Tail, y []float64) {
	rows := len(y)
	c := 0
	if tail == TailSeq {
		for ; c+4 <= k; c += 4 {
			d := b[c*ldb:]
			Gaxpy4(a[c*inc], a[(c+1)*inc], a[(c+2)*inc], a[(c+3)*inc], d, d[ldb:], d[2*ldb:], d[3*ldb:], y)
		}
		for ; c < k; c++ {
			ac := a[c*inc]
			for r, v := range b[c*ldb : c*ldb+rows] {
				y[r] += float64(ac * v)
			}
		}
		return
	}
	for ; c < k; c += 4 {
		k1, k2, k3 := lanes(c, k)
		d := b[c*ldb:]
		d1, d2, d3 := d[k1*ldb:], d[k2*ldb:], d[k3*ldb:]
		a0, a1, a2, a3 := a[c*inc], a[(c+k1)*inc], a[(c+k2)*inc], a[(c+k3)*inc]
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
		case Full:
			Gaxpy4(a0, a1, a2, a3, d, d1, d2, d3, y)
		case Upper:
			hi := min(c+1, rows)
			Gaxpy4(a0, a1, a2, a3, d, d1, d2, d3, y[:hi])
			for r := hi; r < min(c+k3+1, rows); r++ {
				t := float64(a3 * d3[r])
				if r <= c+k2 {
					t += float64(a2 * d2[r])
				}
				if r <= c+k1 {
					t += float64(a1 * d1[r])
				}
				y[r] += t
			}
		case Lower:
			lo := min(c+k3, rows)
			Gaxpy4(a0, a1, a2, a3, d[lo:], d1[lo:], d2[lo:], d3[lo:], y[lo:])
			for r := min(c, rows); r < lo; r++ {
				t := float64(a0 * d[r])
				if r >= c+k1 {
					t += float64(a1 * d1[r])
				}
				if r >= c+k2 {
					t += float64(a2 * d2[r])
				}
				y[r] += t
			}
		}
	}
}

// axpyColsGo is AxpyCols as Axpy4 calls per group.
func axpyColsGo(alpha float64, a []float64, inc int, x, b []float64, ldb, k int) {
	c := 0
	for ; c+4 <= k; c += 4 {
		d := b[c*ldb:]
		Axpy4(-(alpha * a[c*inc]), -(alpha * a[(c+1)*inc]), -(alpha * a[(c+2)*inc]), -(alpha * a[(c+3)*inc]),
			x, d, d[ldb:], d[2*ldb:], d[3*ldb:])
	}
	for ; c < k; c++ {
		s := alpha * a[c*inc]
		col := b[c*ldb:][:len(x)]
		for r, xv := range x {
			col[r] -= float64(s * xv)
		}
	}
}

// reflectLeftGo is ReflectLeft as Dot4 and Axpy4 calls per group.
func reflectLeftGo(tau float64, v, top []float64, ldt int, b []float64, ldb, k int, tail Tail) {
	m := len(v)
	c := 0
	for ; c+4 <= k; c += 4 {
		d, t := b[c*ldb:], top[c*ldt:]
		x0, x1, x2, x3 := d[:m], d[ldb:ldb+m], d[2*ldb:2*ldb+m], d[3*ldb:3*ldb+m]
		s0, s1, s2, s3 := Dot4(v, x0, x1, x2, x3)
		s0, s1, s2, s3 = tau*(t[0]+s0), tau*(t[ldt]+s1), tau*(t[2*ldt]+s2), tau*(t[3*ldt]+s3)
		t[0] -= s0
		t[ldt] -= s1
		t[2*ldt] -= s2
		t[3*ldt] -= s3
		Axpy4(-s0, -s1, -s2, -s3, v, x0, x1, x2, x3)
	}
	if c == k {
		return
	}
	var dots [4]float64
	if tail == TailLanes {
		k1, k2, k3 := lanes(c, k)
		d := b[c*ldb:]
		dots[0], dots[k1], dots[k2], dots[k3] = Dot4(v, d, d[k1*ldb:], d[k2*ldb:], d[k3*ldb:])
	}
	for q := 0; c < k; c, q = c+1, q+1 {
		x := b[c*ldb : c*ldb+m]
		s := dots[q]
		if tail == TailSeq {
			s = 0
			for l, vl := range v {
				s += float64(vl * x[l])
			}
		}
		s = tau * (top[c*ldt] + s)
		top[c*ldt] -= s
		for l, vl := range v {
			x[l] -= float64(s * vl)
		}
	}
}
