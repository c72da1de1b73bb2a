// Package nla provides the dense numerical linear-algebra primitives the
// tile kernels are built from: a column-major matrix type, a minimal set of
// BLAS-like routines, and LAPACK-style Householder reflector generation.
//
// Everything in this package follows the LAPACK storage convention:
// matrices are column-major with an explicit leading dimension, so element
// (i, j) of a matrix stored in a with leading dimension lda is a[i+j*lda].
// Using the LAPACK convention keeps the tile kernels in internal/kernels
// directly comparable with their PLASMA counterparts (CORE_dgeqrt,
// CORE_dtsqrt, ...), which is what the reproduced paper builds on.
//
// # Kernels
//
// The hot loops have amd64 assembly forms, chosen once per process at
// init so that every worker of a run takes the same path:
//
//   - the packed GEMM's micro-kernel (gemm.go): 16×8 on AVX-512F, adding
//     full tiles into C itself; 8×4 on AVX2+FMA; 8×4 in portable Go
//     otherwise or under BIDIAG_NOASM=1. The noavx512 build tag keeps
//     the AVX2 kernel on AVX-512 hardware, for tests.
//   - the apply primitives Dot4, Axpy4, Gaxpy4 and RotSeq, and the T
//     multiplies TrmvApplyWS and TrmvApplyRight, which run as one
//     assembly pass per call (apply.go), on AVX2+FMA.
//   - the reflector sweeps DotCols, ReflectLeft, GaxpyCols and AxpyCols
//     of the factor kernels and the band chase, one assembly pass over
//     a block's column groups per call (reflect.go), on AVX2+FMA, with
//     512-bit row loops where the GEMM runs its AVX-512 kernel.
//
// The two assembly GEMM kernels give the same bits (gemm.go says why),
// and the fused T multiplies and the sweep passes those of the Dot4,
// Axpy4, Gaxpy4 or Scal calls they replace. The Go kernels round every product and so differ from the
// assembly in the last bits; a test that pins result bits asks
// AsmKernels which arithmetic ran.
package nla

import (
	"fmt"
	"math"
)

// Matrix is a dense column-major matrix. Data holds at least LD*Cols
// elements and LD >= Rows. A Matrix may be a view into a larger allocation.
type Matrix struct {
	Rows, Cols int
	LD         int
	Data       []float64
}

// NewMatrix allocates a zeroed r×c column-major matrix with LD == r.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("nla: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, LD: max(r, 1), Data: make([]float64, max(r, 1)*c)}
}

// FromColMajor wraps an existing column-major slice without copying.
func FromColMajor(r, c, ld int, data []float64) *Matrix {
	if ld < r || len(data) < ld*c {
		panic("nla: FromColMajor: inconsistent dimensions")
	}
	return &Matrix{Rows: r, Cols: c, LD: ld, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i+j*m.LD] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i+j*m.LD] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i+j*m.LD] += v }

// Clone returns a deep copy with a compact leading dimension.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		copy(c.Data[j*c.LD:j*c.LD+m.Rows], m.Data[j*m.LD:j*m.LD+m.Rows])
	}
	return c
}

// View returns a sub-matrix view of r rows and c columns starting at (i, j).
// The view shares storage with m. View is inlinable, so a view that does
// not escape its caller costs no allocation — the kernels rely on this on
// their hot paths.
func (m *Matrix) View(i, j, r, c int) *Matrix {
	if i < 0 || j < 0 || i+r > m.Rows || j+c > m.Cols {
		// Constant message: a formatted panic would push View over the
		// inlining budget and re-introduce the allocation.
		panic("nla: View out of range")
	}
	return &Matrix{Rows: r, Cols: c, LD: m.LD, Data: m.Data[i+j*m.LD:]}
}

// Transpose returns a newly allocated transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			t.Data[j+i*t.LD] = m.Data[i+j*m.LD]
		}
	}
	return t
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	id := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		id.Data[i+i*id.LD] = 1
	}
	return id
}

// Zero clears every element of m (respecting the leading dimension).
func (m *Matrix) Zero() {
	for j := 0; j < m.Cols; j++ {
		col := m.Data[j*m.LD : j*m.LD+m.Rows]
		for i := range col {
			col[i] = 0
		}
	}
}

// CopyInto copies src into dst; panics if shapes differ.
func CopyInto(dst, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("nla: CopyInto: shape mismatch")
	}
	for j := 0; j < src.Cols; j++ {
		copy(dst.Data[j*dst.LD:j*dst.LD+src.Rows], src.Data[j*src.LD:j*src.LD+src.Rows])
	}
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	// Two-pass scaled sum to avoid overflow, mirroring dlange('F').
	scale, ssq := 0.0, 1.0
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			v := math.Abs(m.Data[i+j*m.LD])
			if v == 0 {
				continue
			}
			if scale < v {
				ssq = 1 + ssq*(scale/v)*(scale/v)
				scale = v
			} else {
				ssq += (v / scale) * (v / scale)
			}
		}
	}
	return scale * math.Sqrt(ssq)
}

// MaxAbs returns the largest absolute element of m.
func (m *Matrix) MaxAbs() float64 {
	mx := 0.0
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			if v := math.Abs(m.Data[i+j*m.LD]); v > mx {
				mx = v
			}
		}
	}
	return mx
}

// MulAB computes C = A*B for freshly allocated C.
func MulAB(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("nla: MulAB: inner dimension mismatch")
	}
	c := NewMatrix(a.Rows, b.Cols)
	Gemm(false, false, 1, a, b, 0, c)
	return c
}

// MulATB computes C = Aᵀ*B for freshly allocated C.
func MulATB(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic("nla: MulATB: inner dimension mismatch")
	}
	c := NewMatrix(a.Cols, b.Cols)
	Gemm(true, false, 1, a, b, 0, c)
	return c
}

// MulABT computes C = A*Bᵀ for freshly allocated C.
func MulABT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic("nla: MulABT: inner dimension mismatch")
	}
	c := NewMatrix(a.Rows, b.Rows)
	Gemm(false, true, 1, a, b, 0, c)
	return c
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scal computes x *= alpha.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}
