// Package bdsqr implements the BD2VAL stage: the singular value
// decomposition of a real upper-bidiagonal matrix, by two algorithms as in
// LAPACK xBDSQR. SingularValues computes the values alone by dqds, the
// shifted differential qd algorithm (dqds.go), to high relative accuracy.
// SVD also needs the vectors: it runs the implicit QR iteration of Demmel
// and Kahan, which combines shifted sweeps with the zero-shift sweep that
// keeps relative accuracy when the shift would be negligible, and hands
// every plane rotation it performs to the caller, who accumulates the
// singular vectors from them (rot.go); its values come from the same dqds
// call as SingularValues'.
package bdsqr

import (
	"fmt"
	"math"
)

const eps = 0x1p-52

// checkLengths rejects a superdiagonal that does not fit the diagonal.
func checkLengths(d, e []float64) error {
	if n := len(d); len(e) != max(n-1, 0) {
		return fmt.Errorf("bdsqr: len(e) = %d, want %d", len(e), max(n-1, 0))
	}
	return nil
}

// compute reduces (d, e) by the QR iteration until every superdiagonal
// entry is negligible, handing the rotations to out. A nil out discards
// them (the values-only iteration, which the tests keep as an oracle);
// the arithmetic on d and e does not depend on it.
func compute(d, e []float64, out *stream) error {
	n := len(d)
	if n <= 1 {
		return nil
	}
	smax := 0.0
	for _, v := range d {
		smax = math.Max(smax, math.Abs(v))
	}
	for _, v := range e {
		smax = math.Max(smax, math.Abs(v))
	}
	if smax == 0 {
		return nil
	}
	thresh := tol * smax
	maxit := 12 * n * n

	m := n - 1 // active block is d[0..m], e[0..m-1] after deflation from the bottom
	for iter := 0; iter < maxit; iter++ {
		// Deflate negligible superdiagonals at the bottom.
		for m > 0 && math.Abs(e[m-1]) <= thresh {
			e[m-1] = 0
			m--
		}
		if m == 0 {
			return nil
		}
		// Find the start of the unreduced block ending at m.
		lo := m - 1
		for lo > 0 && math.Abs(e[lo-1]) > thresh {
			lo--
		}

		// Handle a zero diagonal inside the block: the matrix is singular
		// and the zero can be deflated by rotating e away. Rotate the zero
		// to annihilate its superdiagonal, which splits the block.
		zeroed := false
		for i := lo; i <= m; i++ {
			if d[i] == 0 || math.Abs(d[i]) <= thresh*tol {
				d[i] = 0
				if i < m {
					l, err := out.left(i+1, i, 1, 0, m-i)
					if err != nil {
						return err
					}
					rotateZeroDiagonalDown(d, e, i, m, l)
				} else {
					r, err := out.right(m-1, m, -1, 0, m-lo)
					if err != nil {
						return err
					}
					rotateZeroDiagonalUp(d, e, lo, m, r)
				}
				zeroed = true
				break
			}
		}
		if zeroed {
			continue
		}

		// Choose the sweep direction like dbdsqr: chase bulges from the
		// larger end toward the smaller so graded matrices converge from
		// the right side.
		forward := math.Abs(d[lo]) >= math.Abs(d[m])

		// Estimate the smallest singular value of the block to choose
		// between a shifted and a zero-shift sweep.
		var sminl, mu float64
		if forward {
			sminl = math.Abs(d[lo])
			mu = sminl
			for i := lo; i < m && sminl > 0; i++ {
				mu = math.Abs(d[i+1]) * (mu / (mu + math.Abs(e[i])))
				sminl = math.Min(sminl, mu)
			}
		} else {
			sminl = math.Abs(d[m])
			mu = sminl
			for i := m - 1; i >= lo && sminl > 0; i-- {
				mu = math.Abs(d[i]) * (mu / (mu + math.Abs(e[i])))
				sminl = math.Min(sminl, mu)
			}
		}
		var shift float64
		smaxBlk := 0.0
		for i := lo; i <= m; i++ {
			smaxBlk = math.Max(smaxBlk, math.Abs(d[i]))
			if i < m {
				smaxBlk = math.Max(smaxBlk, math.Abs(e[i]))
			}
		}
		if smaxBlk > 0 && sminl/smaxBlk >= math.Sqrt(eps) {
			// Relative gaps are healthy: a shift will not hurt accuracy.
			// Take it from the 2×2 at the far end of the sweep.
			if forward {
				shift, _ = las2(d[m-1], e[m-1], d[m])
			} else {
				shift, _ = las2(d[lo], e[lo], d[lo+1])
			}
			anchor := d[lo]
			if !forward {
				anchor = d[m]
			}
			if ratio := shift / math.Abs(anchor); ratio*ratio < eps {
				shift = 0
			}
		}
		// A forward sweep rotates the planes (lo, lo+1) … (m−1, m) in
		// this order, a backward sweep (m, m−1) … (lo+1, lo).
		p, q, step := lo, lo+1, 1
		if !forward {
			p, q, step = m, m-1, -1
		}
		l, r, err := out.sweep(p, q, step, m-lo)
		if err != nil {
			return err
		}
		switch {
		case shift == 0 && forward:
			zeroShiftSweep(d, e, lo, m, l, r)
		case shift == 0:
			zeroShiftSweepBackward(d, e, lo, m, l, r)
		case forward:
			shiftedSweep(d, e, lo, m, shift, l, r)
		default:
			shiftedSweepBackward(d, e, lo, m, shift, l, r)
		}
	}
	return fmt.Errorf("%w (QR iteration)", ErrNoConvergence)
}

// rotateZeroDiagonalDown annihilates e[i] when d[i] == 0 by a sequence of
// left rotations pushing the entry down and out (dbdsqr's zero-diagonal
// handling, forward direction): rows j = i+1 … m are each rotated against
// row i.
func rotateZeroDiagonalDown(d, e []float64, i, m int, left *Run) {
	f := e[i]
	e[i] = 0
	for j := i + 1; j <= m; j++ {
		c, s, _ := lartg(d[j], f)
		d[j] = c*d[j] + s*f
		if j < m {
			f = -s * e[j]
			e[j] = c * e[j]
		}
		left.set(j-i-1, c, s)
	}
}

// rotateZeroDiagonalUp annihilates e[m−1] when d[m] == 0 by right
// rotations pushing the entry up and out: columns j = m−1 … lo are each
// rotated against column m.
func rotateZeroDiagonalUp(d, e []float64, lo, m int, right *Run) {
	f := e[m-1]
	e[m-1] = 0
	for j := m - 1; j >= lo; j-- {
		c, s, _ := lartg(d[j], f)
		d[j] = c*d[j] + s*f
		if j > lo {
			f = -s * e[j-1]
			e[j-1] = c * e[j-1]
		}
		right.set(m-1-j, c, s)
	}
}

// zeroShiftSweep is the Demmel–Kahan implicit zero-shift QR sweep on the
// block d[lo..m], e[lo..m−1] (LAPACK dbdsqr, forward direction). In a
// forward sweep the first rotation of a step acts on columns (right), the
// second on rows (left); a backward sweep has them the other way round.
func zeroShiftSweep(d, e []float64, lo, m int, left, right *Run) {
	cs, oldcs := 1.0, 1.0
	var sn, oldsn, r float64
	for i := lo; i < m; i++ {
		cs, sn, r = lartg(d[i]*cs, e[i])
		if i > lo {
			e[i-1] = oldsn * r
		}
		oldcs, oldsn, d[i] = lartg(oldcs*r, d[i+1]*sn)
		right.set(i-lo, cs, sn)
		left.set(i-lo, oldcs, oldsn)
	}
	h := d[m] * cs
	d[m] = h * oldcs
	e[m-1] = h * oldsn
}

// shiftedSweep is the standard implicitly shifted QR sweep (LAPACK dbdsqr,
// forward direction).
func shiftedSweep(d, e []float64, lo, m int, shift float64, left, right *Run) {
	f := (math.Abs(d[lo]) - shift) * (math.Copysign(1, d[lo]) + shift/d[lo])
	g := e[lo]
	for i := lo; i < m; i++ {
		cosr, sinr, r := lartg(f, g)
		if i > lo {
			e[i-1] = r
		}
		f = cosr*d[i] + sinr*e[i]
		e[i] = cosr*e[i] - sinr*d[i]
		g = sinr * d[i+1]
		d[i+1] = cosr * d[i+1]
		cosl, sinl, r2 := lartg(f, g)
		d[i] = r2
		f = cosl*e[i] + sinl*d[i+1]
		d[i+1] = cosl*d[i+1] - sinl*e[i]
		if i < m-1 {
			g = sinl * e[i+1]
			e[i+1] = cosl * e[i+1]
		}
		right.set(i-lo, cosr, sinr)
		left.set(i-lo, cosl, sinl)
	}
	e[m-1] = f
}

// zeroShiftSweepBackward is the Demmel–Kahan zero-shift sweep chasing from
// the bottom of the block to the top (LAPACK dbdsqr, backward direction).
func zeroShiftSweepBackward(d, e []float64, lo, m int, left, right *Run) {
	cs, oldcs := 1.0, 1.0
	var sn, oldsn, r float64
	for i := m; i > lo; i-- {
		cs, sn, r = lartg(d[i]*cs, e[i-1])
		if i < m {
			e[i] = oldsn * r
		}
		oldcs, oldsn, d[i] = lartg(oldcs*r, d[i-1]*sn)
		left.set(m-i, cs, sn)
		right.set(m-i, oldcs, oldsn)
	}
	h := d[lo] * cs
	d[lo] = h * oldcs
	e[lo] = h * oldsn
}

// shiftedSweepBackward is the implicitly shifted QR sweep in the backward
// direction (LAPACK dbdsqr).
func shiftedSweepBackward(d, e []float64, lo, m int, shift float64, left, right *Run) {
	f := (math.Abs(d[m]) - shift) * (math.Copysign(1, d[m]) + shift/d[m])
	g := e[m-1]
	for i := m; i > lo; i-- {
		cosr, sinr, r := lartg(f, g)
		if i < m {
			e[i] = r
		}
		f = cosr*d[i] + sinr*e[i-1]
		e[i-1] = cosr*e[i-1] - sinr*d[i]
		g = sinr * d[i-1]
		d[i-1] = cosr * d[i-1]
		cosl, sinl, r2 := lartg(f, g)
		d[i] = r2
		f = cosl*e[i-1] + sinl*d[i-1]
		d[i-1] = cosl*d[i-1] - sinl*e[i-1]
		if i > lo+1 {
			g = sinl * e[i-2]
			e[i-2] = cosl * e[i-2]
		}
		left.set(m-i, cosr, sinr)
		right.set(m-i, cosl, sinl)
	}
	e[lo] = f
}

// lartg computes c, s, r with c·f + s·g = r and −s·f + c·g = 0.
func lartg(f, g float64) (c, s, r float64) {
	if g == 0 {
		return 1, 0, f
	}
	if f == 0 {
		return 0, 1, g
	}
	r = math.Copysign(math.Hypot(f, g), f)
	return f / r, g / r, r
}

// las2 returns the singular values (min, max) of the 2×2 upper-triangular
// matrix [[f, g], [0, h]] (LAPACK dlas2).
func las2(f, g, h float64) (ssmin, ssmax float64) {
	fa, ga, ha := math.Abs(f), math.Abs(g), math.Abs(h)
	fhmn, fhmx := math.Min(fa, ha), math.Max(fa, ha)
	if fhmn == 0 {
		if fhmx == 0 {
			return 0, ga
		}
		t := math.Min(fhmx, ga) / math.Max(fhmx, ga)
		return 0, math.Max(fhmx, ga) * math.Sqrt(1+t*t)
	}
	if ga < fhmx {
		as := 1 + fhmn/fhmx
		at := (fhmx - fhmn) / fhmx
		au := (ga / fhmx) * (ga / fhmx)
		c := 2 / (math.Sqrt(as*as+au) + math.Sqrt(at*at+au))
		return fhmn * c, fhmx / c
	}
	au := fhmx / ga
	if au == 0 {
		return fhmn * fhmx / ga, ga
	}
	as := 1 + fhmn/fhmx
	at := (fhmx - fhmn) / fhmx
	c := 1 / (math.Sqrt(1+(as*au)*(as*au)) + math.Sqrt(1+(at*au)*(at*au)))
	return 2 * (fhmn * c) * au, ga / (c + c)
}
