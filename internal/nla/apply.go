package nla

// Vectorized primitives of the compact-WY Householder apply kernels
// (UNMQR/TSMQR/UNMLQ/TSMLQ and their TT twins). The four apply kernels
// share two scalar hot loops: the triangular T-application of dlarfb's
// W ← op(T)·W step and the unit-triangular V1 gather/scatter updates.
// Both decompose into the same three 4-way register-blocked vector
// bundles — Dot4, Axpy4 and Gaxpy4 — whose inner loops run in AVX2+FMA
// assembly (apply_amd64.s) behind the same useAVX2 / BIDIAG_NOASM
// dispatch as dgemm8x4asm. On that path the T multiplies (TrmvApplyWS,
// TrmvApplyRight) are each one assembly pass over the whole panel that
// does exactly what their Dot4 or Scal/Gaxpy4 composition does, kept in
// Go as the fallback and as the tests' reference. RotSeq, the
// plane-rotation sweep the singular-vector accumulation spends its time
// in, sits behind the same dispatch. Kernel choice is a per-process
// constant decided at init, so every worker of a run takes the same path
// and the bitwise parity contract of sequential/parallel/distributed
// execution is preserved.
//
// None of the primitives branch on data values: an explicit zero
// coefficient costs the same FMAs as any other, which keeps the scalar
// fallback and the vector path executing the same operation sequence
// (the asm/no-asm comparison tests rely on this).

// Dot4 returns the four inner products of x against y0..y3, each of
// which must have at least len(x) elements. x is loaded once per block
// and reused across the four independent accumulation chains, which is
// what keeps the FMA pipeline full where a single dot is load-bound.
func Dot4(x, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	if n == 0 {
		return 0, 0, 0, 0
	}
	if useAVX2 {
		return dot4asm(n, &x[0], &y0[0], &y1[0], &y2[0], &y3[0])
	}
	return dot4go(x, y0, y1, y2, y3)
}

// Axpy4 performs the four scaled additions y_q += a_q·x over the first
// len(x) elements: one streaming read of x feeds four destination
// columns. Unlike Axpy it has no a == 0 early-out (see package note on
// data-independent control flow).
func Axpy4(a0, a1, a2, a3 float64, x, y0, y1, y2, y3 []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	if useAVX2 {
		axpy4asm(n, a0, a1, a2, a3, &x[0], &y0[0], &y1[0], &y2[0], &y3[0])
		return
	}
	axpy4go(a0, a1, a2, a3, x, y0, y1, y2, y3)
}

// Gaxpy4 performs the gathered update y += a0·x0 + a1·x1 + a2·x2 + a3·x3
// over the first len(y) elements: four source columns are combined with
// one load/store of the destination instead of four, which keeps the
// update off the store-port limit.
func Gaxpy4(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	n := len(y)
	if n == 0 {
		return
	}
	if useAVX2 {
		gaxpy4asm(n, a0, a1, a2, a3, &x0[0], &x1[0], &x2[0], &x3[0], &y[0])
		return
	}
	gaxpy4go(a0, a1, a2, a3, x0, x1, x2, x3, y)
}

// dot4go is the portable Dot4. It mirrors the vector kernel's structure
// (four independent chains over a shared x) so the two paths agree to
// rounding.
func dot4go(x, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64) {
	y0 = y0[:len(x)]
	y1 = y1[:len(x)]
	y2 = y2[:len(x)]
	y3 = y3[:len(x)]
	for i, v := range x {
		s0 += v * y0[i]
		s1 += v * y1[i]
		s2 += v * y2[i]
		s3 += v * y3[i]
	}
	return s0, s1, s2, s3
}

// axpy4go is the portable Axpy4.
func axpy4go(a0, a1, a2, a3 float64, x, y0, y1, y2, y3 []float64) {
	y0 = y0[:len(x)]
	y1 = y1[:len(x)]
	y2 = y2[:len(x)]
	y3 = y3[:len(x)]
	for i, v := range x {
		y0[i] += a0 * v
		y1[i] += a1 * v
		y2[i] += a2 * v
		y3[i] += a3 * v
	}
}

// gaxpy4go is the portable Gaxpy4.
func gaxpy4go(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	x0 = x0[:len(y)]
	x1 = x1[:len(y)]
	x2 = x2[:len(y)]
	x3 = x3[:len(y)]
	for i := range y {
		y[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
	}
}

// RotSeq applies the k = len(c) plane rotations (c[t], s[t]) to
// consecutive columns of an m-row column-major block: with x_t the m
// elements from a[base+t·stride],
//
//	x_t ← c[t]·x_t + s[t]·x_{t+1},   x_{t+1} ← c[t]·x_{t+1} − s[t]·x_t
//
// for t = 0 … k−1 in order — one sweep of a bidiagonal QR iteration
// folded into a matrix of vectors (dlasr with a variable pivot). stride
// is the distance between neighbouring columns and may be negative: a
// backward sweep walks the columns downwards. The running column stays
// in registers between rotations, so a sweep loads and stores every
// element once.
func RotSeq(m int, a []float64, base, stride int, c, s []float64) {
	k := len(c)
	if m == 0 || k == 0 {
		return
	}
	_ = a[min(base, base+k*stride) : max(base, base+k*stride)+m] // the k+1 columns lie inside a
	if useAVX2 {
		rotseqasm(m, k, &a[base], 8*stride, &c[0], &s[:k][0])
		return
	}
	rotseqgo(m, a, base, stride, c, s)
}

// rotseqgo is the portable RotSeq: one pass over two columns per
// rotation.
func rotseqgo(m int, a []float64, base, stride int, c, s []float64) {
	for t, ct := range c {
		st := s[t]
		x := a[base+t*stride:][:m]
		y := a[base+(t+1)*stride:][:m]
		for i, xi := range x {
			yi := y[i]
			x[i] = ct*xi + st*yi
			y[i] = ct*yi - st*xi
		}
	}
}

// TrmvApplyScratch returns the workspace elements TrmvApplyWS may check
// out for a k-reflector application: the no-trans variant stages Tᵀ
// once (k·k elements) so both variants stream contiguous memory.
// kernels.ScratchSizeFor folds this into the left-apply kinds.
func TrmvApplyScratch(k int) int { return k * k }

// TrmvApplyWS overwrites each column w_j of the k×n panel w with
// op(T)·w_j, where T is k×k upper triangular held in the leading corner
// of t and op(T) = Tᵀ when trans (the Qᵀ case of the left-apply
// kernels). Columns are processed four at a time so every load of a T
// column feeds four independent recurrence chains.
//
// The trans recurrence reads T's columns, which are contiguous in the
// column-major tile; the no-trans recurrence reads T's rows, so it
// first stages Tᵀ into ws scratch (TrmvApplyScratch(k) elements) and
// then runs the same contiguous-column form. ws may be nil (a
// throwaway workspace is used); the trans variant never touches it.
func TrmvApplyWS(trans bool, t, w *Matrix, ws *Workspace) {
	k, n := w.Rows, w.Cols
	if t.Rows < k || t.Cols < k {
		panic("nla: TrmvApplyWS: T smaller than W's row count")
	}
	if k == 0 || n == 0 {
		return
	}
	if trans {
		trmvApplyTrans(k, n, t, w)
		return
	}
	if ws == nil {
		ws = NewWorkspace(k * k)
	}
	mark := ws.Mark()
	tt := ws.ScratchVec(k * k)
	// Stage Tᵀ with leading dimension k: staged column i holds the row
	// T(i, i:k), so the ascending no-trans recurrence reads the same
	// contiguous runs the trans variant gets for free.
	for i := 0; i < k; i++ {
		dst := tt[i*k+i : i*k+k]
		for l := i; l < k; l++ {
			dst[l-i] = t.Data[i+l*t.LD]
		}
	}
	trmvApplyNoTrans(k, n, tt, w)
	ws.Release(mark)
}

// trmvApplyTrans computes w ← Tᵀ·w per column: w'(i) = Σ_{l ≤ i} T(l,i)·w(l),
// descending i so original entries survive until read. T(0:i, i) is the
// contiguous prefix of column i. Groups of four columns run in one
// assembly pass where useAVX2 holds (trmvt4asm, the operation sequence
// of trmvTransGroups without returning to Go between rows); the last
// n mod 4 columns take the scalar loop.
func trmvApplyTrans(k, n int, t, w *Matrix) {
	g := n &^ 3
	if useAVX2 && g > 0 {
		_ = t.Data[(k-1)*t.LD+k-1]
		_ = w.Data[(g-1)*w.LD+k-1]
		trmvt4asm(k, g, &t.Data[0], t.LD, &w.Data[0], w.LD)
	} else {
		trmvTransGroups(k, g, t, w)
	}
	for j := g; j < n; j++ {
		wc := w.Data[j*w.LD : j*w.LD+k]
		for i := k - 1; i >= 0; i-- {
			s := t.Data[i+i*t.LD] * wc[i]
			for l := 0; l < i; l++ {
				s += t.Data[l+i*t.LD] * wc[l]
			}
			wc[i] = s
		}
	}
}

// trmvTransGroups is the Go form of trmvApplyTrans on the first g
// columns (g a multiple of 4): one Dot4 per row per four columns.
func trmvTransGroups(k, g int, t, w *Matrix) {
	for j := 0; j < g; j += 4 {
		w0 := w.Data[j*w.LD : j*w.LD+k]
		w1 := w.Data[(j+1)*w.LD : (j+1)*w.LD+k]
		w2 := w.Data[(j+2)*w.LD : (j+2)*w.LD+k]
		w3 := w.Data[(j+3)*w.LD : (j+3)*w.LD+k]
		for i := k - 1; i >= 0; i-- {
			tc := t.Data[i*t.LD : i*t.LD+i]
			d := t.Data[i+i*t.LD]
			s0, s1, s2, s3 := Dot4(tc, w0, w1, w2, w3)
			w0[i] = float64(d*w0[i]) + s0
			w1[i] = float64(d*w1[i]) + s1
			w2[i] = float64(d*w2[i]) + s2
			w3[i] = float64(d*w3[i]) + s3
		}
	}
}

// trmvApplyNoTrans computes w ← T·w per column against the staged
// transpose tt (LD k, column i = T(i, i:k)): w'(i) = Σ_{l ≥ i} T(i,l)·w(l),
// ascending i so the still-needed entries stay intact. Dispatch as in
// trmvApplyTrans (trmvn4asm, trmvNoTransGroups).
func trmvApplyNoTrans(k, n int, tt []float64, w *Matrix) {
	g := n &^ 3
	if useAVX2 && g > 0 {
		_ = tt[k*k-1]
		_ = w.Data[(g-1)*w.LD+k-1]
		trmvn4asm(k, g, &tt[0], &w.Data[0], w.LD)
	} else {
		trmvNoTransGroups(k, g, tt, w)
	}
	for j := g; j < n; j++ {
		wc := w.Data[j*w.LD : j*w.LD+k]
		for i := 0; i < k; i++ {
			s := tt[i*k+i] * wc[i]
			for l := i + 1; l < k; l++ {
				s += tt[i*k+l] * wc[l]
			}
			wc[i] = s
		}
	}
}

// trmvNoTransGroups is the Go form of trmvApplyNoTrans on the first g
// columns (g a multiple of 4).
func trmvNoTransGroups(k, g int, tt []float64, w *Matrix) {
	for j := 0; j < g; j += 4 {
		w0 := w.Data[j*w.LD : j*w.LD+k]
		w1 := w.Data[(j+1)*w.LD : (j+1)*w.LD+k]
		w2 := w.Data[(j+2)*w.LD : (j+2)*w.LD+k]
		w3 := w.Data[(j+3)*w.LD : (j+3)*w.LD+k]
		for i := 0; i < k; i++ {
			tc := tt[i*k+i+1 : i*k+k]
			d := tt[i*k+i]
			s0, s1, s2, s3 := Dot4(tc, w0[i+1:], w1[i+1:], w2[i+1:], w3[i+1:])
			w0[i] = float64(d*w0[i]) + s0
			w1[i] = float64(d*w1[i]) + s1
			w2[i] = float64(d*w2[i]) + s2
			w3[i] = float64(d*w3[i]) + s3
		}
	}
}

// TrmvApplyRight overwrites the m×k panel w with w·op(T), where T is
// k×k upper triangular held in the leading corner of t; op(T) = T when
// trans (the C·P update used by the factorizations) and Tᵀ otherwise.
// Source columns are gathered four at a time through Gaxpy4 — one
// destination store per four scaled-column additions. Both variants
// read T entries only as broadcast scalars, so no staging (and no
// workspace) is needed. Where useAVX2 holds the whole product is one
// assembly pass (trmvrasm) that keeps each destination block in
// registers across its Scal, Gaxpy4 and remainder steps; every element
// sees the operations of trmvRightGo in the same order.
func TrmvApplyRight(trans bool, t, w *Matrix) {
	m, k := w.Rows, w.Cols
	if t.Rows < k || t.Cols < k {
		panic("nla: TrmvApplyRight: T smaller than W's column count")
	}
	if m == 0 || k == 0 {
		return
	}
	if useAVX2 {
		_ = t.Data[(k-1)*t.LD+k-1]
		_ = w.Data[(k-1)*w.LD+m-1]
		trmvrasm(trans, m, k, &t.Data[0], t.LD, &w.Data[0], w.LD)
		return
	}
	trmvRightGo(trans, m, k, t, w)
}

// trmvRightGo is TrmvApplyRight as Scal, Gaxpy4 and scalar-remainder
// calls per destination column.
func trmvRightGo(trans bool, m, k int, t, w *Matrix) {
	if trans {
		// W ← W·T: column j' = Σ_{l ≤ j'} W(:,l)·T(l,j'); descending
		// order keeps the still-needed original columns intact.
		for j := k - 1; j >= 0; j-- {
			wj := w.Data[j*w.LD : j*w.LD+m]
			Scal(t.Data[j+j*t.LD], wj)
			tc := t.Data[j*t.LD : j*t.LD+j]
			var l int
			for ; l+4 <= j; l += 4 {
				Gaxpy4(tc[l], tc[l+1], tc[l+2], tc[l+3],
					w.Data[l*w.LD:l*w.LD+m],
					w.Data[(l+1)*w.LD:(l+1)*w.LD+m],
					w.Data[(l+2)*w.LD:(l+2)*w.LD+m],
					w.Data[(l+3)*w.LD:(l+3)*w.LD+m],
					wj)
			}
			for ; l < j; l++ {
				tl := tc[l]
				wl := w.Data[l*w.LD : l*w.LD+m]
				for i := range wj {
					wj[i] += float64(tl * wl[i])
				}
			}
		}
		return
	}
	// W ← W·Tᵀ: column j' = Σ_{l ≥ j'} W(:,l)·T(j',l); ascending order.
	for j := 0; j < k; j++ {
		wj := w.Data[j*w.LD : j*w.LD+m]
		Scal(t.Data[j+j*t.LD], wj)
		l := j + 1
		for ; l+4 <= k; l += 4 {
			Gaxpy4(t.Data[j+l*t.LD], t.Data[j+(l+1)*t.LD], t.Data[j+(l+2)*t.LD], t.Data[j+(l+3)*t.LD],
				w.Data[l*w.LD:l*w.LD+m],
				w.Data[(l+1)*w.LD:(l+1)*w.LD+m],
				w.Data[(l+2)*w.LD:(l+2)*w.LD+m],
				w.Data[(l+3)*w.LD:(l+3)*w.LD+m],
				wj)
		}
		for ; l < k; l++ {
			tl := t.Data[j+l*t.LD]
			wl := w.Data[l*w.LD : l*w.LD+m]
			for i := range wj {
				wj[i] += float64(tl * wl[i])
			}
		}
	}
}
