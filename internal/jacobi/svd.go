package jacobi

import (
	"math"
	"sort"

	"github.com/tiled-la/bidiag/internal/nla"
)

// SVD computes the full thin singular value decomposition A = U·diag(S)·Vᵀ
// of an m×n matrix with m ≥ n by one-sided Jacobi with accumulated right
// rotations: U is m×n with orthonormal columns (for nonzero singular
// values), S descending, V n×n orthogonal. Zero singular values yield zero
// columns in U; callers needing a complete basis must orthogonalize those
// separately.
//
// In this repository the routine is a test oracle: slow (O(n³) per sweep,
// sequential) but independent of everything the pipeline is built from.
// The vector path (GE2BND, logged BND2BD, bdsqr with vectors) is checked
// against it; nothing in production calls it.
func SVD(a *nla.Matrix) (u *nla.Matrix, s []float64, v *nla.Matrix) {
	if a.Rows < a.Cols {
		panic("jacobi: SVD requires m ≥ n")
	}
	w := a.Clone()
	m, n := w.Rows, w.Cols
	v = nla.Identity(n)
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
				if math.Abs(ajk) <= tol*math.Sqrt(ajj*akk) {
					continue
				}
				rotated = true
				zeta := (akk - ajj) / (2 * ajk)
				t := math.Copysign(1/(math.Abs(zeta)+math.Sqrt(1+zeta*zeta)), zeta)
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				for i := 0; i < m; i++ {
					vj, vk := cj[i], ck[i]
					cj[i] = c*vj - sn*vk
					ck[i] = sn*vj + c*vk
				}
				vj := v.Data[j*v.LD : j*v.LD+n]
				vk := v.Data[k*v.LD : k*v.LD+n]
				for i := 0; i < n; i++ {
					a1, a2 := vj[i], vk[i]
					vj[i] = c*a1 - sn*a2
					vk[i] = sn*a1 + c*a2
				}
			}
		}
		if !rotated {
			break
		}
	}

	// Column norms are the singular values; sort descending with the
	// accompanying U and V columns.
	type col struct {
		sigma float64
		idx   int
	}
	cols := make([]col, n)
	for j := 0; j < n; j++ {
		cj := w.Data[j*w.LD : j*w.LD+m]
		cols[j] = col{sigma: math.Sqrt(nla.Dot(cj, cj)), idx: j}
	}
	sort.SliceStable(cols, func(i, j int) bool { return cols[i].sigma > cols[j].sigma })

	u = nla.NewMatrix(m, n)
	vOut := nla.NewMatrix(n, n)
	s = make([]float64, n)
	scaleMax := cols[0].sigma
	for pos, c := range cols {
		s[pos] = c.sigma
		src := w.Data[c.idx*w.LD : c.idx*w.LD+m]
		dst := u.Data[pos*u.LD : pos*u.LD+m]
		if c.sigma > 1e-300 && (scaleMax == 0 || c.sigma/scaleMax > 1e-14) {
			inv := 1 / c.sigma
			for i, x := range src {
				dst[i] = x * inv
			}
		}
		copy(vOut.Data[pos*vOut.LD:pos*vOut.LD+n], v.Data[c.idx*v.LD:c.idx*v.LD+n])
	}
	return u, s, vOut
}
