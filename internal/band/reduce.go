package band

import "github.com/tiled-la/bidiag/internal/nla"

// This file holds the arithmetic of the BND2BD stage: the blocked
// Householder bulge chase PLASMA runs as its band-to-bidiagonal stage
// (the gbtype1/2/3 kernel pattern of the paper's companion report,
// arXiv:1611.06892 §GE2VAL), on a column-major band work array.
//
// Sweep i (i = 0 … n−3) turns row i into bidiagonal form and chases the
// bulge this creates off the end of the band in rounds. Round r of sweep
// i works on the block column c0 = i+1+r·ku of width k = min(ku, n−c0):
//
//	round 0    one right reflector of length k annihilates row i beyond
//	           its first superdiagonal; applying it fills the diagonal
//	           block [c0, c0+k)² below the diagonal; one left reflector
//	           annihilates the first column of that fill and is applied
//	           to the rest of the block.
//	round r≥1  the previous round's left reflector (rows [c0−ku, c0)) is
//	           applied to the off-diagonal block above the diagonal
//	           block, filling it; one right reflector annihilates the
//	           first row of that fill and is applied to the rest of the
//	           off-diagonal block and to the diagonal block; one left
//	           reflector annihilates the first column of the diagonal
//	           block's fill and is applied to the rest of it.
//
// Only the first row/column of each bulge is eliminated; the rest stays
// as fill (at most ku−1 sub- and 2·ku−1 superdiagonals) and is consumed
// one row/column at a time by the following sweeps, whose blocks sit one
// column further right. A full round is two left and two right reflector
// applications on ku×ku blocks — 16·ku² flops on contiguous columns, each
// application one of nla's reflector sweeps (ReflectLeft; GaxpyCols then
// AxpyCols), the assembly passes the stage-1 factor kernels run on.
//
// Ragged shapes need no second code path: a block column cut by the
// matrix edge just has k < ku, which shortens the reflectors, and a
// length-one reflector is the identity (tau = 0).

// Reduce performs the BND2BD stage: it reduces an upper-band matrix
// (diagonal plus KU superdiagonals, the output shape of the tiled GE2BND
// algorithms) to upper bidiagonal form by the Householder bulge chase
// described above. The input is not modified; the returned matrix has
// KU = 1 (or less for tiny n). Singular values are preserved.
//
// Reduce runs every round of a sweep before starting the next sweep, on
// one thread and without a task graph. It is the numerical reference of
// the pipelined form in parallel.go, which runs the same round kernel on
// the same blocks in an order that keeps every pair of conflicting
// rounds in this sweep-major order and is therefore bitwise-identical.
func Reduce(b *Matrix) *Matrix {
	w := newWorkFrom(b)
	scratch := make([]float64, w.scratchElems())
	for i := 0; i < w.sweeps(); i++ {
		for r := 0; r <= w.lastRound(i); r++ {
			w.round(i, r, scratch)
		}
	}
	return w.extract()
}

// work is the private working storage of one reduction: the band in
// LAPACK general-band layout with room for the chase's fill, plus the
// left reflectors that are in flight between two rounds of a sweep.
type work struct {
	n, ku int
	// ld is the column stride: 2·ku superdiagonals, the diagonal and ku
	// subdiagonals, so a[j·ld + 2·ku + i − j] holds element (i, j) and a
	// block's consecutive columns are ld−1 apart (the dgbtrf trick that
	// lets a block of the band be addressed as a dense column-major
	// matrix).
	ld int
	a  []float64
	// The left reflector generated on diagonal block rows [c, c+k) waits
	// for the next round of its sweep in tauL[c] and vl[c+1 : c+k] (the
	// tail of v; v(0) = 1 is implicit). Reflectors of different sweeps
	// in flight at once occupy different rows: see parallel.go.
	vl, tauL []float64
	// log, when non-nil, receives both reflectors of every round (see
	// log.go); the band arithmetic is the same either way.
	log *Log
}

// newWorkFrom returns working storage holding a copy of b, taken from
// b's arena.
func newWorkFrom(b *Matrix) *work {
	n, ku := b.N, min(b.KU, max(b.N-1, 0))
	w := &work{n: n, ku: ku, ld: 3*ku + 1}
	w.a = b.arena.Vec(n * w.ld)
	w.vl = b.arena.Vec(n)
	w.tauL = b.arena.Vec(n)
	w.load(b)
	return w
}

// load copies b, of w's shape, into w. The storage is recycled memory
// that holds an earlier job's data, so every element the copy does not
// write is cleared: the fill rows the chase reads before it writes them,
// and the corners outside the matrix.
func (w *work) load(b *Matrix) {
	n, ku := w.n, w.ku
	for j := 0; j < n; j++ {
		// Column j holds rows j−2·ku … j+ku; the band is rows
		// max(j−ku, 0) … j, at offsets 2·ku − min(j, ku) … 2·ku.
		col := w.a[j*w.ld : (j+1)*w.ld]
		clear(col[:2*ku-min(j, ku)])
		clear(col[2*ku+1:])
	}
	for s := range b.diags {
		for i, v := range b.diags[s] {
			w.set(i, i+s, v)
		}
	}
}

// at is the index of element (i, j) in w.a.
func (w *work) at(i, j int) int { return j*w.ld + 2*w.ku + i - j }

func (w *work) set(i, j int, v float64) { w.a[w.at(i, j)] = v }

// extract copies the main diagonal and first superdiagonal into a fresh
// bidiagonal matrix, the result shape of the reduction.
func (w *work) extract() *Matrix {
	out := New(w.n, max(min(1, w.n-1), 0))
	for s := range out.diags {
		for i := range out.diags[s] {
			out.diags[s][i] = w.a[w.at(i, i+s)]
		}
	}
	return out
}

// sweeps returns the number of sweeps of the reduction: one per row that
// has an element beyond its first superdiagonal.
func (w *work) sweeps() int {
	if w.ku < 2 {
		return 0
	}
	return w.n - 2
}

// lastRound returns the index of the last round of sweep i, the last r
// whose block column i+1+r·ku starts inside the matrix.
func (w *work) lastRound(i int) int { return (w.n - 2 - i) / w.ku }

// scratchElems is the scratch a round needs: the right reflector (ku)
// and the product of a block of at most 2·ku−1 rows with it.
func (w *work) scratchElems() int { return 3 * w.ku }

// round runs round r of sweep i (see the file comment). scratch must
// hold scratchElems() elements; nothing in it survives the call.
func (w *work) round(i, r int, scratch []float64) {
	ku := w.ku
	c0 := i + 1 + r*ku
	k := min(ku, w.n-c0)
	// Rows [p0, c0) are the rows above the diagonal block this round
	// updates: the previous round's diagonal block, or row i alone.
	p0 := c0 - ku
	if r == 0 {
		p0 = i
	} else {
		w.applyLeft(w.tauL[p0], w.vl[p0+1:c0], p0, c0, k)
	}

	// Right reflector from row p0 of the block column. The row is
	// strided in column-major storage, so Larfg works on a copy.
	u := scratch[:k]
	stride := w.ld - 1
	row := w.at(p0, c0)
	for j := range u {
		u[j] = w.a[row+j*stride]
	}
	beta, tauR := nla.Larfg(u[0], u[1:])
	w.a[row] = beta
	for j := 1; j < k; j++ {
		w.a[row+j*stride] = 0
	}
	u[0] = 1
	applyRight(w.a, w.at(p0+1, c0), stride, c0+k-p0-1, tauR, u, scratch[ku:])

	// Left reflector from the first column of the diagonal block.
	d := w.at(c0, c0)
	x := w.a[d+1 : d+k]
	vt := w.vl[c0+1 : c0+k]
	w.a[d], w.tauL[c0] = nla.Larfg(w.a[d], x)
	copy(vt, x)
	clear(x)
	w.applyLeft(w.tauL[c0], vt, c0, c0+1, k-1)

	if w.log != nil {
		w.log.put(i, r, w.tauL[c0], vt, tauR, u)
	}
}

// applyLeft overwrites the block of rows [r0, r0+1+len(vt)) and columns
// [c, c+k) with H·block, H = I − tau·v·vᵀ, v = [1; vt]: each column's
// first entry is the unit row's and the rest lies right below it, so one
// nla.ReflectLeft pass over the band layout does the whole block.
func (w *work) applyLeft(tau float64, vt []float64, r0, c, k int) {
	if tau == 0 {
		return
	}
	o, stride := w.at(r0, c), w.ld-1
	nla.ReflectLeft(tau, vt, w.a[o:], stride, w.a[o+1:], stride, k, nla.TailSeq)
}

// applyRight overwrites the m×len(u) block whose columns start at a[o],
// a[o+stride], … with block·H, H = I − tau·u·uᵀ (u(0) = 1 stored). t is
// scratch for the m-vector block·u. The chase calls it on blocks of the
// band array, the reflector log on row panels of a dense matrix.
func applyRight(a []float64, o, stride, m int, tau float64, u, t []float64) {
	if tau == 0 {
		return
	}
	k := len(u)
	t = t[:m]
	copy(t, a[o:o+m])
	if k > 1 {
		nla.GaxpyCols(u[1:], 1, a[o+stride:], stride, k-1, nla.Full, nla.TailSeq, t)
	}
	nla.AxpyCols(tau, u, 1, t, a[o:], stride, k)
}

// roundFlops is the flop model of one round with m rows above a k-wide
// diagonal block (m = ku, or 0 in round 0 where only row i sits above):
// 4 flops per element a reflector is applied to, so 16·ku² for a full
// round. It counts work whether or not the data makes a reflector
// trivial, so simulated and measured graphs agree.
func roundFlops(m, k int) float64 { return 8 * float64(k) * float64(m+k) }

// sweepFlops returns the modeled flops of rounds [rlo, rhi] of sweep i
// (rhi ≤ lastRound(i)) in closed form: round 0, the full rounds, and the
// at most one round the matrix edge truncates.
func sweepFlops(n, ku, i, rlo, rhi int) float64 {
	if rlo > rhi {
		return 0
	}
	var f float64
	if rlo == 0 {
		f = roundFlops(0, min(ku, n-1-i))
		rlo = 1
	}
	// Round r is full when its block column ends inside the matrix:
	// i+1+(r+1)·ku ≤ n.
	full := min(rhi, (n-1-i)/ku-1)
	if full >= rlo {
		f += float64(full-rlo+1) * roundFlops(ku, ku)
		rlo = full + 1
	}
	for r := rlo; r <= rhi; r++ {
		f += roundFlops(ku, n-(i+1+r*ku))
	}
	return f
}

// ModelFlops returns the modeled flop count of reducing an n×n band with
// ku superdiagonals — the sum of roundFlops over every round, about
// 8·n²·ku — the figure GFLOP/s rates of the BND2BD stage are quoted
// against. It equals the total flops of the task graph for any
// granularity.
func ModelFlops(n, ku int) float64 {
	w := work{n: n, ku: min(ku, max(n-1, 0))}
	var f float64
	for i := 0; i < w.sweeps(); i++ {
		f += sweepFlops(w.n, w.ku, i, 0, w.lastRound(i))
	}
	return f
}
