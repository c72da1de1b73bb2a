package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/tiled-la/bidiag/internal/nla"
)

// The scalar factor kernels the package shipped before they were rebuilt
// on the 4-wide nla primitives: one nla.Dot/nla.Axpy per column, one dot
// per entry of T, the LQ family gathering and scattering every trailing
// row. They are kept verbatim (renamed ref*) as the oracle the vectorized
// kernels are compared with entry by entry by the tests at the end of this
// file.

func refGEQRT(a, t *nla.Matrix, tau []float64, ws *nla.Workspace) {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if len(tau) < k || t.Rows < k || t.Cols < k {
		panic("kernels: GEQRT: workspace too small")
	}
	ws, mark := grab(ws)
	tri := ws.ScratchVec(k)
	for j := 0; j < k; j++ {
		// Generate H_j from column j below the diagonal.
		col := a.Data[j+j*a.LD:]
		beta, tj := nla.Larfg(col[0], col[1:m-j])
		a.Data[j+j*a.LD] = beta
		tau[j] = tj
		// Apply H_j to the trailing columns j+1..n-1.
		if tj != 0 {
			v := a.Data[j+1+j*a.LD : m+j*a.LD] // tail of v_j, length m-j-1
			for jj := j + 1; jj < n; jj++ {
				c := a.Data[j+jj*a.LD : m+jj*a.LD]
				w := c[0] + nla.Dot(v, c[1:])
				w *= tj
				c[0] -= w
				nla.Axpy(-w, v, c[1:])
			}
		}
		// T(0:j, j) = -tau_j * T(0:j,0:j) * (V(:,0:j)ᵀ v_j); T(j,j) = tau_j.
		for i := 0; i < j; i++ {
			// z_i = V(:,i)ᵀ v_j over rows j..m-1: V(j,i)·1 + Σ_{r>j} V(r,i)·v_j(r).
			s := a.Data[j+i*a.LD]
			for r := j + 1; r < m; r++ {
				s += a.Data[r+i*a.LD] * a.Data[r+j*a.LD]
			}
			t.Data[i+j*t.LD] = s
		}
		refScaleTriColumn(t, j, -tj, tri)
		t.Data[j+j*t.LD] = tj
	}
	ws.Release(mark)
}

func refTSQRT(a1, a2, t *nla.Matrix, tau []float64, ws *nla.Workspace) {
	n := a1.Cols
	m := a2.Rows
	if a1.Rows < n || a2.Cols != n || len(tau) < n || t.Rows < n || t.Cols < n {
		panic("kernels: TSQRT: shape mismatch")
	}
	ws, mark := grab(ws)
	tri := ws.ScratchVec(n)
	for j := 0; j < n; j++ {
		colj := a2.Data[j*a2.LD : j*a2.LD+m]
		beta, tj := nla.Larfg(a1.Data[j+j*a1.LD], colj)
		a1.Data[j+j*a1.LD] = beta
		tau[j] = tj
		if tj != 0 {
			for jj := j + 1; jj < n; jj++ {
				cc := a2.Data[jj*a2.LD : jj*a2.LD+m]
				w := a1.Data[j+jj*a1.LD] + nla.Dot(colj, cc)
				w *= tj
				a1.Data[j+jj*a1.LD] -= w
				nla.Axpy(-w, colj, cc)
			}
		}
		// T(0:j, j) = -tau_j * T(0:j,0:j) * (A2(:,0:j)ᵀ a2(:,j)): the unit
		// tops are orthogonal for i < j so only the dense parts contribute.
		for i := 0; i < j; i++ {
			t.Data[i+j*t.LD] = nla.Dot(a2.Data[i*a2.LD:i*a2.LD+m], colj)
		}
		refScaleTriColumn(t, j, -tj, tri)
		t.Data[j+j*t.LD] = tj
	}
	ws.Release(mark)
}

func refTTQRT(a1, a2, t *nla.Matrix, tau []float64, ws *nla.Workspace) {
	k := a1.Cols
	m2 := a2.Rows
	if a2.Cols != k || len(tau) < k || t.Rows < k || t.Cols < k {
		panic("kernels: TTQRT: shape mismatch")
	}
	ws, mark := grab(ws)
	tri := ws.ScratchVec(k)
	for j := 0; j < k; j++ {
		r2 := min(j+1, m2)
		colj := a2.Data[j*a2.LD : j*a2.LD+r2]
		beta, tj := nla.Larfg(a1.Data[j+j*a1.LD], colj)
		a1.Data[j+j*a1.LD] = beta
		tau[j] = tj
		if tj != 0 {
			for jj := j + 1; jj < k; jj++ {
				cc := a2.Data[jj*a2.LD : jj*a2.LD+r2]
				w := a1.Data[j+jj*a1.LD] + nla.Dot(colj, cc)
				w *= tj
				a1.Data[j+jj*a1.LD] -= w
				nla.Axpy(-w, colj, cc)
			}
		}
		for i := 0; i < j; i++ {
			ri := min(i+1, m2)
			t.Data[i+j*t.LD] = nla.Dot(a2.Data[i*a2.LD:i*a2.LD+ri], a2.Data[j*a2.LD:j*a2.LD+ri])
		}
		refScaleTriColumn(t, j, -tj, tri)
		t.Data[j+j*t.LD] = tj
	}
	ws.Release(mark)
}

func refTTMQR(trans bool, k int, v2, t, c1, c2 *nla.Matrix, ws *nla.Workspace) {
	n := c1.Cols
	m2 := c2.Rows
	if c2.Cols != n || v2.Rows != m2 || v2.Cols < k || c1.Rows < k {
		panic("kernels: TTMQR: shape mismatch")
	}
	ws, mark := grab(ws)
	w := ws.Scratch(k, n)
	for j := 0; j < n; j++ {
		c2c := c2.Data[j*c2.LD:]
		wc := w.Data[j*w.LD : j*w.LD+k]
		c1c := c1.Data[j*c1.LD:]
		for tcol := 0; tcol < k; tcol++ {
			r2 := min(tcol+1, m2)
			wc[tcol] = c1c[tcol] + nla.Dot(v2.Data[tcol*v2.LD:tcol*v2.LD+r2], c2c[:r2])
		}
	}
	nla.TrmvApplyWS(trans, t, w, ws)
	for j := 0; j < n; j++ {
		wc := w.Data[j*w.LD : j*w.LD+k]
		c1c := c1.Data[j*c1.LD:]
		c2c := c2.Data[j*c2.LD:]
		for tcol := 0; tcol < k; tcol++ {
			c1c[tcol] -= wc[tcol]
			r2 := min(tcol+1, m2)
			nla.Axpy(-wc[tcol], v2.Data[tcol*v2.LD:tcol*v2.LD+r2], c2c[:r2])
		}
	}
	ws.Release(mark)
}

func refScaleTriColumn(t *nla.Matrix, j int, alpha float64, scratch []float64) {
	if j == 0 {
		return
	}
	orig := scratch[:j]
	for l := 0; l < j; l++ {
		orig[l] = t.Data[l+j*t.LD]
	}
	for i := 0; i < j; i++ {
		var s float64
		for l := i; l < j; l++ {
			s += t.Data[i+l*t.LD] * orig[l]
		}
		t.Data[i+j*t.LD] = alpha * s
	}
}

func refGELQT(a, t *nla.Matrix, tau []float64, ws *nla.Workspace) {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if len(tau) < k || t.Rows < k || t.Cols < k {
		panic("kernels: GELQT: workspace too small")
	}
	ws, mark := grab(ws)
	row := ws.ScratchVec(n) // scratch for the current reflector row
	tri := ws.ScratchVec(k)
	for i := 0; i < k; i++ {
		// Generate H_i from row i right of the diagonal.
		tail := row[:n-i-1]
		for c := i + 1; c < n; c++ {
			tail[c-i-1] = a.Data[i+c*a.LD]
		}
		beta, ti := nla.Larfg(a.Data[i+i*a.LD], tail)
		a.Data[i+i*a.LD] = beta
		for c := i + 1; c < n; c++ {
			a.Data[i+c*a.LD] = tail[c-i-1]
		}
		tau[i] = ti
		// Apply H_i from the right to rows i+1..m-1.
		if ti != 0 {
			for ii := i + 1; ii < m; ii++ {
				w := a.Data[ii+i*a.LD]
				for c := i + 1; c < n; c++ {
					w += a.Data[ii+c*a.LD] * tail[c-i-1]
				}
				w *= ti
				a.Data[ii+i*a.LD] -= w
				for c := i + 1; c < n; c++ {
					a.Data[ii+c*a.LD] -= w * tail[c-i-1]
				}
			}
		}
		// T(0:i, i) = -tau_i * T(0:i,0:i) * (Ṽ(:,0:i)ᵀ v_i): for l < i the
		// overlap is the unit of v_l against v_i's entry at column l... the
		// unit of v_i sits at column i, so z_l = V(l,i)·1 + Σ_{c>i} V(l,c)V(i,c).
		for l := 0; l < i; l++ {
			s := a.Data[l+i*a.LD]
			for c := i + 1; c < n; c++ {
				s += a.Data[l+c*a.LD] * a.Data[i+c*a.LD]
			}
			t.Data[l+i*t.LD] = s
		}
		refScaleTriColumn(t, i, -ti, tri)
		t.Data[i+i*t.LD] = ti
	}
	ws.Release(mark)
}

func refTSLQT(a1, a2, t *nla.Matrix, tau []float64, ws *nla.Workspace) {
	m := a1.Rows
	n := a2.Cols
	if a1.Cols < m || a2.Rows != m || len(tau) < m || t.Rows < m || t.Cols < m {
		panic("kernels: TSLQT: shape mismatch")
	}
	ws, mark := grab(ws)
	rowi := ws.ScratchVec(n)
	rowii := ws.ScratchVec(n)
	tri := ws.ScratchVec(m)
	for i := 0; i < m; i++ {
		for c := 0; c < n; c++ {
			rowi[c] = a2.Data[i+c*a2.LD]
		}
		beta, ti := nla.Larfg(a1.Data[i+i*a1.LD], rowi)
		a1.Data[i+i*a1.LD] = beta
		for c := 0; c < n; c++ {
			a2.Data[i+c*a2.LD] = rowi[c]
		}
		tau[i] = ti
		if ti != 0 {
			for ii := i + 1; ii < m; ii++ {
				for c := 0; c < n; c++ {
					rowii[c] = a2.Data[ii+c*a2.LD]
				}
				w := a1.Data[ii+i*a1.LD] + nla.Dot(rowi, rowii)
				w *= ti
				a1.Data[ii+i*a1.LD] -= w
				for c := 0; c < n; c++ {
					a2.Data[ii+c*a2.LD] = rowii[c] - w*rowi[c]
				}
			}
		}
		// Unit parts are orthogonal for l < i: z_l = a2(l,:)·a2(i,:).
		for l := 0; l < i; l++ {
			var s float64
			for c := 0; c < n; c++ {
				s += a2.Data[l+c*a2.LD] * rowi[c]
			}
			t.Data[l+i*t.LD] = s
		}
		refScaleTriColumn(t, i, -ti, tri)
		t.Data[i+i*t.LD] = ti
	}
	ws.Release(mark)
}

func refTTLQT(a1, a2, t *nla.Matrix, tau []float64, ws *nla.Workspace) {
	k := a1.Rows
	n2 := a2.Cols
	if a2.Rows != k || len(tau) < k || t.Rows < k || t.Cols < k {
		panic("kernels: TTLQT: shape mismatch")
	}
	ws, mark := grab(ws)
	rowi := ws.ScratchVec(n2)
	rowii := ws.ScratchVec(n2)
	tri := ws.ScratchVec(k)
	for i := 0; i < k; i++ {
		r2 := min(i+1, n2)
		for c := 0; c < r2; c++ {
			rowi[c] = a2.Data[i+c*a2.LD]
		}
		beta, ti := nla.Larfg(a1.Data[i+i*a1.LD], rowi[:r2])
		a1.Data[i+i*a1.LD] = beta
		for c := 0; c < r2; c++ {
			a2.Data[i+c*a2.LD] = rowi[c]
		}
		tau[i] = ti
		if ti != 0 {
			for ii := i + 1; ii < k; ii++ {
				for c := 0; c < r2; c++ {
					rowii[c] = a2.Data[ii+c*a2.LD]
				}
				w := a1.Data[ii+i*a1.LD] + nla.Dot(rowi[:r2], rowii[:r2])
				w *= ti
				a1.Data[ii+i*a1.LD] -= w
				for c := 0; c < r2; c++ {
					a2.Data[ii+c*a2.LD] = rowii[c] - w*rowi[c]
				}
			}
		}
		for l := 0; l < i; l++ {
			rl := min(l+1, n2)
			var s float64
			for c := 0; c < rl; c++ {
				s += a2.Data[l+c*a2.LD] * rowi[c]
			}
			t.Data[l+i*t.LD] = s
		}
		refScaleTriColumn(t, i, -ti, tri)
		t.Data[i+i*t.LD] = ti
	}
	ws.Release(mark)
}

func refTTMLQ(trans bool, k int, v2, t, c1, c2 *nla.Matrix, ws *nla.Workspace) {
	m := c1.Rows
	n2 := c2.Cols
	if c2.Rows != m || v2.Cols != n2 || v2.Rows < k || c1.Cols < k {
		panic("kernels: TTMLQ: shape mismatch")
	}
	ws, mark := grab(ws)
	w := ws.Scratch(m, k)
	for trow := 0; trow < k; trow++ {
		r2 := min(trow+1, n2)
		wc := w.Data[trow*w.LD : trow*w.LD+m]
		copy(wc, c1.Data[trow*c1.LD:trow*c1.LD+m])
		for j := 0; j < r2; j++ {
			vt := v2.Data[trow+j*v2.LD]
			if vt == 0 {
				continue
			}
			cc := c2.Data[j*c2.LD : j*c2.LD+m]
			for i := range wc {
				wc[i] += vt * cc[i]
			}
		}
	}
	nla.TrmvApplyRight(trans, t, w)
	for trow := 0; trow < k; trow++ {
		r2 := min(trow+1, n2)
		wc := w.Data[trow*w.LD : trow*w.LD+m]
		cc := c1.Data[trow*c1.LD : trow*c1.LD+m]
		for i := range wc {
			cc[i] -= wc[i]
		}
		for j := 0; j < r2; j++ {
			vt := v2.Data[trow+j*v2.LD]
			if vt == 0 {
				continue
			}
			cj := c2.Data[j*c2.LD : j*c2.LD+m]
			for i := range wc {
				cj[i] -= wc[i] * vt
			}
		}
	}
	ws.Release(mark)
}

// factorDims hits every remainder path of the 4-wide sweeps (0–3 columns
// left over on either side of the pivot), the one-element tiles, and the
// first size past a full tile.
var factorDims = []int{1, 2, 3, 4, 5, 7, 17, 64, 65}

// factorPairs is every (m, n) pair of factorDims, plus for GE and TT the
// ragged last tile row of an nb = 64 tiling (m < nb = n), where the short
// column group of every sweep meets the triangle's corner.
func factorPairs(sh shape) [][2]int {
	var ps [][2]int
	for _, m := range factorDims {
		for _, n := range factorDims {
			ps = append(ps, [2]int{m, n})
		}
	}
	if sh != tsShape {
		for _, m := range []int{6, 9, 33, 62, 63} {
			ps = append(ps, [2]int{m, 64})
		}
	}
	return ps
}

// factorInput is one problem for a factor kernel in QR orientation (the
// LQ kernels get the transposes). NaN marks what a kernel may neither read
// nor write: the strictly lower part of the triangular pivot tile, which
// holds GEQRT's vectors in a real run, and for TT whatever lies below the
// diagonal of the second tile. a2 is nil for GE.
type factorInput struct {
	sh     shape
	a1, a2 *nla.Matrix
}

// newFactorInput draws a problem whose second tile (the factored tile
// itself for GE) is m×n. With zeroed set, the tails of the first two
// reflectors are zero, so tau = 0 both on an empty T column and after one.
func newFactorInput(rng *rand.Rand, sh shape, m, n int, zeroed bool) factorInput {
	nan := math.NaN()
	in := factorInput{sh: sh}
	body := nla.RandomMatrix(rng, m, n)
	if sh == geShape {
		in.a1 = body
	} else {
		in.a1, in.a2 = nla.RandomMatrix(rng, n, n), body
		for j := 0; j < n; j++ {
			for i := j + 1; i < n; i++ {
				in.a1.Set(i, j, nan)
			}
		}
	}
	for j := 0; j < n; j++ {
		lo, hi := 0, m
		switch sh {
		case geShape:
			lo = j + 1
		case ttShape:
			hi = min(j+1, m)
			for i := hi; i < m; i++ {
				body.Set(i, j, nan)
			}
		}
		if zeroed && j < 2 {
			for i := lo; i < hi; i++ {
				body.Set(i, j, 0)
			}
		}
	}
	return in
}

// padded copies x (or its transpose) into the interior of a NaN-filled
// parent, so the tile a kernel sees is a view with LD > Rows and a write
// outside it shows.
func padded(x *nla.Matrix, transpose bool) (view, parent *nla.Matrix) {
	if transpose {
		x = x.Transpose()
	}
	parent = nla.NewMatrix(x.Rows+3, x.Cols+2)
	for i := range parent.Data {
		parent.Data[i] = math.NaN()
	}
	view = parent.View(1, 1, x.Rows, x.Cols)
	nla.CopyInto(view, x)
	return view, parent
}

// factorOutput is what one run of a factor kernel leaves behind, padding
// included.
type factorOutput struct {
	a1, a2, t *nla.Matrix // parents
	v1, v2    *nla.Matrix // the views the kernel was given
	tau       []float64
}

// runFactor runs the kernel of the given shape and family, vectorized or
// reference, on a padded copy of in. The workspace is exactly
// ScratchSize elements and must not grow.
func runFactor(t *testing.T, in factorInput, lq, ref bool) factorOutput {
	t.Helper()
	var out factorOutput
	out.v1, out.a1 = padded(in.a1, lq)
	body := out.v1
	if in.a2 != nil {
		out.v2, out.a2 = padded(in.a2, lq)
		body = out.v2
	}
	k := min(in.a1.Rows, in.a1.Cols)
	tv, tp := padded(nla.NewMatrix(k, k), false)
	for i := range tp.Data {
		tp.Data[i] = math.NaN()
	}
	out.t = tp
	out.tau = make([]float64, k)
	kind := factorKind(in.sh, lq)
	ws := nla.NewWorkspace(ScratchSize(kind, body.Rows, body.Cols, 0))
	if ref {
		ws = nil
	}
	switch kind {
	case GEQRTKind:
		pick(ref, refGEQRT, GEQRT)(out.v1, tv, out.tau, ws)
	case GELQTKind:
		pick(ref, refGELQT, GELQT)(out.v1, tv, out.tau, ws)
	case TSQRTKind:
		pick(ref, refTSQRT, TSQRT)(out.v1, out.v2, tv, out.tau, ws)
	case TSLQTKind:
		pick(ref, refTSLQT, TSLQT)(out.v1, out.v2, tv, out.tau, ws)
	case TTQRTKind:
		pick(ref, refTTQRT, TTQRT)(out.v1, out.v2, tv, out.tau, ws)
	case TTLQTKind:
		pick(ref, refTTLQT, TTLQT)(out.v1, out.v2, tv, out.tau, ws)
	}
	if ws != nil && ws.Grows() != 0 {
		t.Fatalf("%s %dx%d: workspace of ScratchSize elements grew", kind, body.Rows, body.Cols)
	}
	return out
}

func pick[F any](ref bool, r, k F) F {
	if ref {
		return r
	}
	return k
}

// factorKind names the factor kernel of a shape and family.
func factorKind(sh shape, lq bool) Kind {
	if lq {
		return [...]Kind{GELQTKind, TSLQTKind, TTLQTKind}[sh]
	}
	return [...]Kind{GEQRTKind, TSQRTKind, TTQRTKind}[sh]
}

// sameOrNaN reports the largest |got − want| over two equally shaped
// matrices and fails if a NaN sits in one and not in the other: a NaN
// that appears means padding was read, one that vanished that it was
// written.
func sameOrNaN(t *testing.T, what string, got, want *nla.Matrix) float64 {
	t.Helper()
	var worst float64
	for i, w := range want.Data {
		g := got.Data[i]
		if math.IsNaN(w) != math.IsNaN(g) {
			t.Fatalf("%s: entry %d (LD %d) is %v, reference has %v", what, i, want.LD, g, w)
		}
		if d := math.Abs(g - w); d > worst {
			worst = d
		}
	}
	return worst
}

// denan returns a copy of x with every NaN replaced by zero, transposed
// back to QR orientation if the kernel was an LQ one.
func denan(x *nla.Matrix, transposed bool) *nla.Matrix {
	c := x.Clone()
	for i, v := range c.Data {
		if math.IsNaN(v) {
			c.Data[i] = 0
		}
	}
	if transposed {
		c = c.Transpose()
	}
	return c
}

// checkCompactWY checks what the factorization promises, on the stacked
// problem S = [A1; A2] in QR orientation: Q = I − V·T·Vᵀ is orthogonal
// and Q·[R; 0] gives S back.
func checkCompactWY(t *testing.T, what string, in factorInput, out factorOutput, lq bool, bound float64) {
	t.Helper()
	s1, f1 := denan(in.a1, false), denan(out.v1, lq)
	k, n := min(s1.Rows, s1.Cols), s1.Cols
	rows := s1.Rows
	if in.a2 != nil {
		rows += in.a2.Rows
	}
	s, v, r := nla.NewMatrix(rows, n), nla.NewMatrix(rows, k), nla.NewMatrix(rows, n)
	nla.CopyInto(s.View(0, 0, s1.Rows, n), s1)
	for j := 0; j < n; j++ {
		for i := 0; i <= min(j, k-1); i++ {
			r.Set(i, j, f1.At(i, j))
		}
	}
	for j := 0; j < k; j++ {
		v.Set(j, j, 1)
	}
	if in.a2 == nil {
		for j := 0; j < k; j++ {
			for i := j + 1; i < rows; i++ {
				v.Set(i, j, f1.At(i, j))
			}
		}
	} else {
		nla.CopyInto(s.View(s1.Rows, 0, in.a2.Rows, n), denan(in.a2, false))
		nla.CopyInto(v.View(s1.Rows, 0, in.a2.Rows, k), denan(out.v2, lq))
	}
	tm := nla.NewMatrix(k, k)
	tv := out.t.View(1, 1, k, k)
	for j := 0; j < k; j++ {
		for i := 0; i <= j; i++ {
			tm.Set(i, j, tv.At(i, j))
		}
	}
	q := explicitQ(v, tm)
	if d := maxDiff(nla.MulATB(q, q), nla.Identity(rows)); d > bound {
		t.Errorf("%s: ‖QᵀQ − I‖ = %.3g, want ≤ %.3g", what, d, bound)
	}
	if d := maxDiff(nla.MulAB(q, r), s); d > bound {
		t.Errorf("%s: ‖Q·[R;0] − A‖ = %.3g, want ≤ %.3g", what, d, bound)
	}
}

// TestFactorKernelsMatchReference compares each of the six factor kernels
// with the scalar kernel it replaced — R or L, the vector tails, tau and
// the whole upper triangle of T — on every pair of tile dimensions in
// factorPairs, wide and tall, TT trapezoids included, with and without
// leading zero tails. The two run the same reflectors in a different
// summation order, so they agree to a small multiple of n·ε.
func TestFactorKernelsMatchReference(t *testing.T) {
	const c = 16
	rng := rand.New(rand.NewSource(23))
	for _, sh := range []shape{geShape, tsShape, ttShape} {
		for _, lq := range []bool{false, true} {
			for _, mn := range factorPairs(sh) {
				m, n := mn[0], mn[1]
				for _, zeroed := range []bool{false, true} {
					in := newFactorInput(rng, sh, m, n, zeroed)
					got, want := runFactor(t, in, lq, false), runFactor(t, in, lq, true)
					what := fmt.Sprintf("%s m=%d n=%d zeroed=%v", factorKind(sh, lq), m, n, zeroed)
					bound := c * float64(max(m, n)) * 0x1p-52
					worst := sameOrNaN(t, what+" pivot tile", got.a1, want.a1)
					if in.a2 != nil {
						worst = max(worst, sameOrNaN(t, what+" second tile", got.a2, want.a2))
					}
					worst = max(worst, sameOrNaN(t, what+" T", got.t, want.t))
					for i, w := range want.tau {
						worst = max(worst, math.Abs(got.tau[i]-w))
						if w == 0 && got.tau[i] != 0 {
							t.Errorf("%s: tau[%d] = %g where the tail is zero (H = I)", what, i, got.tau[i])
						}
					}
					if worst > bound {
						t.Errorf("%s: differs from the scalar reference by %.3g = %.1f·n·ε, want ≤ %d·n·ε",
							what, worst, worst/bound*c, c)
					}
					checkCompactWY(t, what, in, got, lq, bound)
				}
			}
		}
	}
}

// TestTTApplyMatchesReference compares TTMQR and TTMLQ with the scalar
// kernels they replaced, both directions, on C tiles of every width in
// factorDims against reflector counts that leave 0–3 columns over, with
// a trapezoidal V2 (m2 < k). What lies outside V2's trapezoid and the
// rows of C1 past the k-th are NaN: they may be neither read nor written.
func TestTTApplyMatchesReference(t *testing.T) {
	const c = 16
	rng := rand.New(rand.NewSource(29))
	for _, k := range []int{1, 3, 4, 7, 17, 64} {
		for _, m2 := range []int{k, (k + 1) / 2} {
			in := newFactorInput(rng, ttShape, m2, k, false)
			tm, tau := nla.NewMatrix(k, k), make([]float64, k)
			refTTQRT(denan(in.a1, false), in.a2, tm, tau, nil)
			for _, n := range factorDims {
				for _, lq := range []bool{false, true} {
					for _, trans := range []bool{true, false} {
						x1, x2 := nla.RandomMatrix(rng, k+2, n), nla.RandomMatrix(rng, m2, n)
						for j := 0; j < n; j++ {
							x1.Set(k, j, math.NaN())
							x1.Set(k+1, j, math.NaN())
						}
						run := func(ref bool) (p1, p2 *nla.Matrix) {
							v2, _ := padded(in.a2, lq)
							c1, p1 := padded(x1, lq)
							c2, p2 := padded(x2, lq)
							if lq {
								pick(ref, refTTMLQ, TTMLQ)(trans, k, v2, tm, c1, c2, nil)
							} else {
								pick(ref, refTTMQR, TTMQR)(trans, k, v2, tm, c1, c2, nil)
							}
							return p1, p2
						}
						got1, got2 := run(false)
						want1, want2 := run(true)
						what := fmt.Sprintf("TTMQR k=%d m2=%d n=%d lq=%v trans=%v", k, m2, n, lq, trans)
						worst := max(sameOrNaN(t, what+" C1", got1, want1), sameOrNaN(t, what+" C2", got2, want2))
						if bound := c * float64(max(k, n)) * 0x1p-52; worst > bound {
							t.Errorf("%s: differs from the scalar reference by %.3g, want ≤ %.3g", what, worst, bound)
						}
					}
				}
			}
		}
	}
}
