// Package jacobi implements the one-sided Jacobi SVD, used across the test
// suite as an independent oracle for singular values: it shares no code
// path with the tiled bidiagonalization pipeline and converges to high
// relative accuracy on small dense matrices.
package jacobi

import (
	"math"
	"sort"

	"github.com/tiled-la/bidiag/internal/nla"
)

// SingularValues returns the singular values of a (any shape) in
// descending order, computed by one-sided Jacobi on the tall orientation.
func SingularValues(a *nla.Matrix) []float64 {
	w := a.Clone()
	if w.Rows < w.Cols {
		w = w.Transpose()
	}
	m, n := w.Rows, w.Cols
	const maxSweeps = 60
	tol := 1e-15
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for j := 0; j < n-1; j++ {
			for k := j + 1; k < n; k++ {
				cj := w.Data[j*w.LD : j*w.LD+m]
				ck := w.Data[k*w.LD : k*w.LD+m]
				ajj := nla.Dot(cj, cj)
				akk := nla.Dot(ck, ck)
				ajk := nla.Dot(cj, ck)
				// √ajj·√akk, not √(ajj·akk): on a graded matrix the
				// product of two squared norms underflows long before
				// either does, and the pair would never count as done.
				if math.Abs(ajk) <= tol*math.Sqrt(ajj)*math.Sqrt(akk) {
					continue
				}
				rotated = true
				// Two-sided rotation of the 2×2 Gram block.
				zeta := (akk - ajj) / (2 * ajk)
				// Hypot: between columns of very different norms ζ² overflows,
				// which would make t zero and the rotation a no-op forever.
				t := math.Copysign(1/(math.Abs(zeta)+math.Hypot(1, zeta)), zeta)
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					vj, vk := cj[i], ck[i]
					cj[i] = c*vj - s*vk
					ck[i] = s*vj + c*vk
				}
			}
		}
		if !rotated {
			break
		}
	}
	sv := make([]float64, n)
	for j := 0; j < n; j++ {
		cj := w.Data[j*w.LD : j*w.LD+m]
		sv[j] = math.Sqrt(nla.Dot(cj, cj))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sv)))
	return sv
}

// MaxRelDiff returns the largest relative difference between two descending
// spectra, scaling by the largest singular value (the meaningful measure
// for backward-stable reductions).
func MaxRelDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	scale := 1e-300
	for _, v := range a {
		if v > scale {
			scale = v
		}
	}
	mx := 0.0
	for i := range a {
		if d := math.Abs(a[i]-b[i]) / scale; d > mx {
			mx = d
		}
	}
	return mx
}
