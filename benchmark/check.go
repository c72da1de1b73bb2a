package main

import (
	"fmt"
	"math"

	"github.com/tiled-la/bidiag/httpapi"
	"github.com/tiled-la/bidiag/internal/nla"
)

const (
	eps = 0x1p-52
	// Tolerances in units of n·ε, n the smaller dimension: singular values
	// against the prescribed spectrum (relative to σ₁), and the SVD's
	// residual and orthogonality.
	valuesTol = 4.0
	svdTol    = 16.0
)

// valuesErr returns max|σ̂ᵢ−σᵢ|/(σ₁·n·ε) against the prescribed spectrum.
func valuesErr(got, sigma []float64) (float64, error) {
	if len(got) != len(sigma) {
		return 0, fmt.Errorf("got %d singular values, want %d", len(got), len(sigma))
	}
	worst := 0.0
	for i, v := range got {
		if math.IsNaN(v) {
			return 0, fmt.Errorf("singular value %d is NaN", i)
		}
		worst = max(worst, math.Abs(v-sigma[i]))
	}
	return worst / (sigma[0] * float64(len(sigma)) * eps), nil
}

func checkValues(got, sigma []float64) error {
	e, err := valuesErr(got, sigma)
	if err != nil {
		return err
	}
	return svdErr{values: e}.check()
}

// svdErr holds a result's accuracy in units of n·ε; a values-only result
// fills values alone.
type svdErr struct{ values, residual, orthU, orthV float64 }

// check holds the errors against the tolerances.
func (e svdErr) check() error {
	switch {
	case e.values > valuesTol:
		return fmt.Errorf("singular values off by %.2f n·ε (limit %g)", e.values, valuesTol)
	case e.residual > svdTol || e.orthU > svdTol || e.orthV > svdTol || math.IsNaN(e.residual+e.orthU+e.orthV):
		return fmt.Errorf("SVD residual %.2f, UᵀU−I %.2f, VᵀV−I %.2f n·ε (limit %g)", e.residual, e.orthU, e.orthV, svdTol)
	}
	return nil
}

// worst returns the larger of each error in e and o.
func (e svdErr) worst(o svdErr) svdErr {
	return svdErr{max(e.values, o.values), max(e.residual, o.residual), max(e.orthU, o.orthU), max(e.orthV, o.orthV)}
}

// svdErrors measures A ≈ U·diag(s)·Vᵀ: ‖A−UΣVᵀ‖_F/‖A‖_F and the largest
// entries of UᵀU−I and VᵀV−I.
func svdErrors(a, u *nla.Matrix, s []float64, v *nla.Matrix, sigma []float64) (svdErr, error) {
	k := len(sigma)
	if u.Rows != a.Rows || v.Rows != a.Cols || u.Cols != k || v.Cols != k {
		return svdErr{}, fmt.Errorf("factor shapes U %dx%d, V %dx%d do not fit A %dx%d", u.Rows, u.Cols, v.Rows, v.Cols, a.Rows, a.Cols)
	}
	ve, err := valuesErr(s, sigma)
	if err != nil {
		return svdErr{}, err
	}
	us := u.Clone()
	for j := 0; j < k; j++ {
		nla.Scal(s[j], us.Data[j*us.LD:j*us.LD+us.Rows])
	}
	r := nla.MulABT(us, v)
	for j := 0; j < r.Cols; j++ {
		for i := 0; i < r.Rows; i++ {
			r.Add(i, j, -a.At(i, j))
		}
	}
	ne := float64(k) * eps
	return svdErr{
		values:   ve,
		residual: r.FrobeniusNorm() / a.FrobeniusNorm() / ne,
		orthU:    nla.OrthogonalityError(u) / ne,
		orthV:    nla.OrthogonalityError(v) / ne,
	}, nil
}

func checkSVD(a, u *nla.Matrix, s []float64, v *nla.Matrix, sigma []float64) error {
	e, err := svdErrors(a, u, s, v, sigma)
	if err != nil {
		return err
	}
	return e.check()
}

// sameBits reports whether two value vectors are bitwise identical — the
// contract of a cache hit against the miss that filled the cache.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// matrixOf views a wire matrix as the internal column-major type. The
// caller has checked that Data holds M·N elements.
func matrixOf(m httpapi.Matrix) *nla.Matrix {
	return nla.FromColMajor(m.M, m.N, max(m.M, 1), m.Data)
}
