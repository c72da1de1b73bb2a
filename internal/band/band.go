// Package band implements upper-band matrix storage and the BND2BD stage
// of the singular value pipeline: the blocked Householder bulge chase
// from band-bidiagonal form (the output of the tiled GE2BND algorithms)
// to proper bidiagonal form, after the PLASMA band-reduction kernels the
// paper's experiments run (reduce.go describes the algorithm).
//
// One round kernel serves two bitwise-identical forms: Reduce, the
// single-threaded sweep-major reference with no task graph, and the
// grouping of the same rounds into caravan tasks over ku-block column
// windows, executed as a task graph on the internal/sched runtime (see
// parallel.go for the decomposition and the ordering argument).
// A round's reflector applications are nla's sweep passes
// (nla.ReflectLeft, nla.GaxpyCols, nla.AxpyCols), shared with the
// stage-1 factor kernels; the reflector log's MulQ and MulP apply theirs
// with the same applyRight, so the SVD's vectors see the same bits.
// BuildReduceGraph exposes the DAG for executors, simulators and
// critical-path analysis — in production it runs behind the
// internal/pipeline executor layer as the stage-2 plan; ReduceParallel
// is the in-package convenience wrapper the parity tests and benchmarks
// use.
package band

import (
	"fmt"
	"math"

	"github.com/tiled-la/bidiag/internal/nla"
)

// Matrix is an n×n upper-band matrix with KU stored superdiagonals:
// element (i, j) may be nonzero only when 0 ≤ j−i ≤ KU. Storage is by
// diagonals; the reduction works on a private column-major copy.
type Matrix struct {
	N, KU int
	// diags[s][i] holds element (i, i+s) for 0 ≤ s ≤ KU, 0 ≤ i < N−s.
	diags [][]float64
	// arena, when non-nil, holds diags and the working copy of every
	// reduction of this band (see NewIn).
	arena *nla.Arena
}

// New allocates a zero n×n band matrix with ku superdiagonals.
func New(n, ku int) *Matrix { return NewIn(nil, n, ku) }

// NewIn allocates an n×n band matrix with ku superdiagonals in ar: its
// diagonals are UNINITIALIZED, and the reductions of it (Reduce,
// BuildReduceGraph) take their working copy from ar too, so the band and
// its chase live and die with ar's job. A nil ar is New.
func NewIn(ar *nla.Arena, n, ku int) *Matrix {
	if n < 0 || ku < 0 {
		panic("band: negative dimension")
	}
	if ku > n-1 && n > 0 {
		ku = n - 1
	}
	d := make([][]float64, ku+1)
	for s := range d {
		d[s] = ar.Vec(n - s)
	}
	return &Matrix{N: n, KU: ku, diags: d, arena: ar}
}

// InBand reports whether (i, j) lies inside the stored band.
func (b *Matrix) InBand(i, j int) bool {
	return i >= 0 && j >= 0 && i < b.N && j < b.N && j >= i && j-i <= b.KU
}

// At returns element (i, j); zero outside the band.
func (b *Matrix) At(i, j int) float64 {
	if !b.InBand(i, j) {
		return 0
	}
	return b.diags[j-i][i]
}

// Set assigns element (i, j); it panics outside the band.
func (b *Matrix) Set(i, j int, v float64) {
	if !b.InBand(i, j) {
		panic(fmt.Sprintf("band: Set(%d,%d) outside band of width %d", i, j, b.KU))
	}
	b.diags[j-i][i] = v
}

// Clone returns a deep copy of b.
func (b *Matrix) Clone() *Matrix {
	c := New(b.N, b.KU)
	for s := range b.diags {
		copy(c.diags[s], b.diags[s])
	}
	return c
}

// ToDense expands b into a dense matrix (for tests and small problems).
func (b *Matrix) ToDense() *nla.Matrix {
	d := nla.NewMatrix(b.N, b.N)
	for s := 0; s <= b.KU; s++ {
		for i := 0; i < b.N-s; i++ {
			d.Set(i, i+s, b.diags[s][i])
		}
	}
	return d
}

// FromDense extracts the upper band of a square dense matrix.
func FromDense(d *nla.Matrix, ku int) *Matrix {
	if d.Rows != d.Cols {
		panic("band: FromDense requires a square matrix")
	}
	b := New(d.Rows, ku)
	for s := 0; s <= b.KU; s++ {
		for i := 0; i < b.N-s; i++ {
			b.diags[s][i] = d.At(i, i+s)
		}
	}
	return b
}

// Bidiagonal returns the main diagonal and first superdiagonal. It panics
// if the matrix stores more than one superdiagonal; callers must Reduce
// first.
func (b *Matrix) Bidiagonal() (d, e []float64) {
	if b.KU > 1 {
		panic("band: Bidiagonal on a matrix with KU > 1; call Reduce first")
	}
	d = append([]float64(nil), b.diags[0]...)
	if b.KU >= 1 {
		e = append([]float64(nil), b.diags[1]...)
	} else {
		e = make([]float64, max(b.N-1, 0))
	}
	return d, e
}

// FrobeniusNorm returns the Frobenius norm of the band matrix.
func (b *Matrix) FrobeniusNorm() float64 {
	var ssq float64
	for s := range b.diags {
		for _, v := range b.diags[s] {
			ssq += v * v
		}
	}
	return math.Sqrt(ssq)
}
