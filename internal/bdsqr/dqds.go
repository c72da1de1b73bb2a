package bdsqr

import (
	"errors"
	"math"
	"sort"
)

// The values-only solve: the differential quotient-difference algorithm
// with shifts (dqds; Fernando & Parlett 1994, Parlett & Marques 2000), the
// algorithm LAPACK's xBDSQR hands the no-vectors case to. It works on the
// squares of the entries, q_i = d_i² and e_i = e_i², which are the
// Cholesky-like factors of BᵀB; every transform replaces (q, e) by the
// factors of BᵀB − τ·I and adds τ to the running shift σ. There is no
// square root and no rotation in the inner loop, and every singular value
// is found to high relative accuracy, however graded the bidiagonal.
//
// The structure follows LAPACK: xLASQ1 (scale, square, unscale) is
// SingularValues, xLASQ2 (split, iterate block by block) is run, xLASQ3
// (deflate, transform, retry) is step, xLASQ4 is shift, xLASQ5 transform
// and xLASQ6 transformSafe. The qd-array z holds two (q, e) arrays
// interleaved so that a transform reads one and writes the other
// ("ping-pong"): with the arrays numbered pp ∈ {0, 1},
//
//	z[4i−3+pp] = q_i,   z[4i−1+pp] = e_i,   i = 1 … n,
//
// indexed from 1 like the published algorithm; z[0] is unused. The e slot
// under the bottom of a block carries bookkeeping: −σ of a block split off
// above the current one, or the smallest e of the last transform.

// ErrNoConvergence is returned when the iteration hits its cap with
// singular values still unconverged.
var ErrNoConvergence = errors.New("bdsqr: singular values did not converge")

const (
	safmin = 0x1p-1022
	tol    = 100 * eps
	tol2   = tol * tol
	// cbias is how much larger the bottom q must be than the top one before
	// a block is flipped end for end, so that it converges at the bottom.
	cbias = 1.5
	// scaleExp is the binary exponent the largest entry is scaled just
	// below: 2^485 = √(ε/safmin), LAPACK's choice, the largest scale whose
	// squares and their sums stay far from overflow, which leaves the most
	// room at the bottom of the range for squares of small entries.
	scaleExp = 485
)

// SingularValues returns the singular values of the n×n upper-bidiagonal
// matrix with diagonal d (length n) and superdiagonal e (length n−1), in
// descending order, each to high relative accuracy. The inputs are not
// modified. Scaling by a power of two scales the result exactly: the
// entries are brought to a fixed binary exponent before they are squared.
func SingularValues(d, e []float64) ([]float64, error) {
	n := len(d)
	if err := checkLengths(d, e); err != nil {
		return nil, err
	}
	sv := make([]float64, n)
	smax, emax := 0.0, 0.0
	for i, v := range d {
		sv[i] = math.Abs(v)
		smax = max(smax, sv[i])
	}
	for _, v := range e {
		emax = max(emax, math.Abs(v))
	}
	switch {
	case n == 2:
		sv[1], sv[0] = las2(d[0], e[0], d[1])
		return sv, nil
	case emax == 0:
		// Diagonal (this includes n ≤ 1).
		sort.Sort(sort.Reverse(sort.Float64Slice(sv)))
		return sv, nil
	}
	_, exp := math.Frexp(max(smax, emax))
	k := scaleExp - exp
	s := &qd{z: make([]float64, 4*n+1)}
	for i := range d {
		v := math.Ldexp(d[i], k)
		s.z[4*i+1] = v * v
		if i < n-1 {
			v = math.Ldexp(e[i], k)
			s.z[4*i+3] = v * v
		}
	}
	if err := s.run(n); err != nil {
		return nil, err
	}
	for i := range sv {
		sv[i] = math.Ldexp(math.Sqrt(s.z[4*i+1]), -k)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sv)))
	return sv, nil
}

// qd is the state of one dqds solve: the qd-array and what the shift
// strategy carries from one transform to the next.
type qd struct {
	z  []float64
	pp int // the array the current values are in
	// dmin is the smallest d of the last transform, dmin1 the smallest
	// without the last d, dmin2 without the last two; dn, dn1 and dn2 are
	// the last three d themselves. A negative dmin is a failed transform.
	dmin, dmin1, dmin2, dn, dn1, dn2 float64
	// tau is the shift of the next transform, ttype the (negative) case of
	// shift that chose it, g the damping factor of case 6.
	tau   float64
	ttype int
	g     float64
	// sigma is the shift accumulated on the current block, desig the
	// rounding error of that sum; qmax bounds its largest q.
	sigma, desig, qmax float64
}

// run computes the eigenvalues of the qd-array of length n in array 0,
// leaving them in the q slots of array 0 (xLASQ2).
func (s *qd) run(n int) error {
	z := s.z
	if cbias*z[1] < z[4*n-3] {
		s.reverse(1, n)
	}
	// Two zero-shift dqd transforms, splitting wherever Li's test finds an
	// e negligible against the d of the recurrence on either side.
	for pass := 0; pass < 2; pass++ {
		pp := s.pp
		d := z[4*n+pp-3]
		for i4 := 4*(n-1) + pp; i4 >= 4+pp; i4 -= 4 {
			if z[i4-1] <= tol2*d {
				z[i4-1] = 0
				d = z[i4-3]
			} else {
				d = z[i4-3] * (d / (d + z[i4-1]))
			}
		}
		d = z[1+pp]
		for i4 := 4 + pp; i4 <= 4*(n-1)+pp; i4 += 4 {
			z[i4-2*pp-2] = d + z[i4-1]
			switch {
			case z[i4-1] <= tol2*d:
				z[i4-1] = 0
				z[i4-2*pp-2] = d
				z[i4-2*pp] = 0
				d = z[i4+1]
			case safmin*z[i4+1] < z[i4-2*pp-2] && safmin*z[i4-2*pp-2] < z[i4+1]:
				t := z[i4+1] / z[i4-2*pp-2]
				z[i4-2*pp] = z[i4-1] * t
				d *= t
			default:
				z[i4-2*pp] = z[i4+1] * (z[i4-1] / z[i4-2*pp-2])
				d = z[i4+1] * (d / z[i4-2*pp-2])
			}
		}
		z[4*n-pp-2] = d
		s.pp = 1 - pp
	}

	// Solve the unreduced blocks from the bottom up. A block ends above an
	// e ≤ 0: an exact split, or a block split off during the iteration,
	// whose shift is stored negated in that e.
	n0 := n
	for blocks := 0; blocks <= n; blocks++ {
		if n0 < 1 {
			return nil
		}
		s.desig, s.sigma = 0, 0
		if n0 < n {
			s.sigma = -z[4*n0-1]
		}
		if s.sigma < 0 {
			return ErrNoConvergence
		}
		// Find the top of the block, its largest q+e and a
		// Gershgorin-type lower bound on its eigenvalues.
		emax := 0.0
		qmin := z[4*n0-3]
		s.qmax = qmin
		i0 := 1
		for i4 := 4 * n0; i4 >= 8; i4 -= 4 {
			if z[i4-5] <= 0 {
				i0 = i4 / 4
				break
			}
			if qmin >= 4*emax {
				qmin = min(qmin, z[i4-3])
				emax = max(emax, z[i4-5])
			}
			s.qmax = max(s.qmax, z[i4-7]+z[i4-5])
		}
		s.pp = 0
		// Flip the block if the smallest d of the recurrence sits near its
		// top, so that it converges at the bottom. The other array is then
		// stale, so the first step skips the deflation tests that read it.
		flipped := false
		if n0-i0 > 1 {
			dee := z[4*i0-3]
			deemin, kmin := dee, i0
			for i4 := 4*i0 + 1; i4 <= 4*n0-3; i4 += 4 {
				dee = z[i4] * (dee / (dee + z[i4-2]))
				if dee <= deemin {
					deemin, kmin = dee, (i4+3)/4
				}
			}
			if (kmin-i0)*2 < n0-kmin && deemin <= 0.5*z[4*n0-3] {
				s.reverse(i0, n0)
				flipped = true
			}
		}
		// The negated initial shift.
		s.dmin = -max(0, qmin-2*math.Sqrt(qmin)*math.Sqrt(emax))

		limit := 100 * (n0 - i0 + 1)
		for it := 0; i0 <= n0; it++ {
			if it == limit {
				return ErrNoConvergence
			}
			n0 = s.step(i0, n0, flipped)
			flipped = false
			s.pp = 1 - s.pp
			// When an e has become tiny, split the block at every
			// negligible interior e; the blocks above keep the current σ.
			if s.pp == 0 && n0-i0 >= 3 && (z[4*n0] <= tol2*s.qmax || z[4*n0-1] <= tol2*s.sigma) {
				split := i0 - 1
				s.qmax = z[4*i0-3]
				emin, oldemin := z[4*i0-1], z[4*i0]
				for i4 := 4 * i0; i4 <= 4*(n0-3); i4 += 4 {
					if z[i4] <= tol2*z[i4-3] || z[i4-1] <= tol2*s.sigma {
						z[i4-1] = -s.sigma
						split = i4 / 4
						s.qmax = 0
						emin, oldemin = z[i4+3], z[i4+4]
					} else {
						s.qmax = max(s.qmax, z[i4+1])
						emin = min(emin, z[i4-1])
						oldemin = min(oldemin, z[i4])
					}
				}
				z[4*n0-1], z[4*n0] = emin, oldemin
				i0 = split + 1
			}
		}
	}
	return ErrNoConvergence
}

// step deflates what has converged at the bottom of the block [i0, n0],
// then runs one successful transform on what is left, and returns the new
// bottom (xLASQ3). A converged eigenvalue goes, σ added, into the q slot
// of array 0 it leaves.
func (s *qd) step(i0, n0 int, flipped bool) int {
	z, pp := s.z, s.pp
	n0in := n0
	for !flipped {
		if n0 < i0 {
			return n0
		}
		if n0 == i0 {
			z[4*n0-3] = z[4*n0+pp-3] + s.sigma
			n0--
			continue
		}
		nn := 4*n0 + pp
		if n0 > i0+1 {
			// Is the last e negligible (one eigenvalue), or the one above
			// it (two)? Each test reads the new e and the old one.
			if z[nn-5] <= tol2*(s.sigma+z[nn-3]) || z[nn-2*pp-4] <= tol2*z[nn-7] {
				z[4*n0-3] = z[4*n0+pp-3] + s.sigma
				n0--
				continue
			}
			if z[nn-9] > tol2*s.sigma && z[nn-2*pp-8] > tol2*z[nn-11] {
				break
			}
		}
		// The eigenvalues of the trailing 2×2.
		if z[nn-3] > z[nn-7] {
			z[nn-3], z[nn-7] = z[nn-7], z[nn-3]
		}
		t := 0.5 * ((z[nn-7] - z[nn-3]) + z[nn-5])
		if z[nn-5] > z[nn-3]*tol2 && t != 0 {
			v := z[nn-3] * (z[nn-5] / t)
			if v <= t {
				v = z[nn-3] * (z[nn-5] / (t * (1 + math.Sqrt(1+v/t))))
			} else {
				v = z[nn-3] * (z[nn-5] / (t + math.Sqrt(t)*math.Sqrt(t+v)))
			}
			t = z[nn-7] + (v + z[nn-5])
			z[nn-3] *= z[nn-7] / t
			z[nn-7] = t
		}
		z[4*n0-7] = z[nn-7] + s.sigma
		z[4*n0-3] = z[nn-3] + s.sigma
		n0 -= 2
	}

	// After a deflation or a failure, flip the block if its top has
	// become the small end.
	if (s.dmin <= 0 || n0 < n0in) && cbias*z[4*i0+pp-3] < z[4*n0+pp-3] {
		s.reverse(i0, n0)
		if n0-i0 <= 4 {
			z[4*n0+pp-1] = z[4*i0+pp-1]
			z[4*n0-pp] = z[4*i0-pp]
		}
		s.dmin2 = min(s.dmin2, z[4*n0+pp-1])
		z[4*n0+pp-1] = min(z[4*n0+pp-1], z[4*i0+pp-1], z[4*i0+pp+3])
		z[4*n0-pp] = min(z[4*n0-pp], z[4*i0-pp], z[4*i0-pp+4])
		s.qmax = max(s.qmax, z[4*i0+pp-3], z[4*i0+pp+1])
		// What the last transform said about the bottom is void.
		s.dmin, s.tau, s.ttype = 0, 0, -1
	} else {
		s.shift(i0, n0, n0in)
	}
	for {
		s.transform(i0, n0)
		switch {
		case s.dmin >= 0 && s.dmin1 >= 0:
			s.addShift()
			return n0
		case s.dmin < 0 && s.dmin1 > 0 && z[4*(n0-1)-pp] < tol*(s.sigma+s.dn1) && math.Abs(s.dn) < tol*s.sigma:
			// Convergence hidden by a negative last d.
			z[4*(n0-1)-pp+2] = 0
			s.dmin = 0
			s.addShift()
			return n0
		case s.dmin < 0:
			// The shift was too big: retry with a smaller one.
			switch {
			case s.ttype < -22:
				s.tau = 0 // failed twice: play it safe
			case s.dmin1 > 0:
				s.tau = (s.tau + s.dmin) * (1 - 2*eps) // a late failure gives an excellent shift
				s.ttype -= 11
			default:
				s.tau *= 0.25
				s.ttype -= 12
			}
			continue
		case math.IsNaN(s.dmin) && s.tau != 0:
			s.tau = 0
			continue
		}
		// NaN without a shift: the guarded transform.
		s.transformSafe(i0, n0)
		s.tau = 0
		s.addShift()
		return n0
	}
}

// addShift adds the shift of the last transform to σ, compensated.
func (s *qd) addShift() {
	if s.tau < s.sigma {
		s.desig += s.tau
		t := s.sigma + s.desig
		s.desig -= t - s.sigma
		s.sigma = t
		return
	}
	t := s.sigma + s.tau
	s.desig = s.sigma - (t - s.tau) + s.desig
	s.sigma = t
}

// reverse flips the block [i0, n0] of both arrays end for end.
func (s *qd) reverse(i0, n0 int) {
	z := s.z
	for i, j := i0, n0; i < j; i, j = i+1, j-1 {
		z[4*i-3], z[4*j-3] = z[4*j-3], z[4*i-3]
		z[4*i-2], z[4*j-2] = z[4*j-2], z[4*i-2]
	}
	for i, j := i0, n0-1; i < j; i, j = i+1, j-1 {
		z[4*i-1], z[4*j-1] = z[4*j-1], z[4*i-1]
		z[4*i], z[4*j] = z[4*j], z[4*i]
	}
}

// transform is one dqds transform with shift τ on the block [i0, n0],
// from array pp into the other (xLASQ5). A shift negligible against σ is
// dropped, and a zero-shift transform flushes d below ε·σ to zero.
func (s *qd) transform(i0, n0 int) {
	if n0-i0-1 <= 0 {
		return
	}
	z, pp, tau := s.z, s.pp, s.tau
	thresh := eps * (s.sigma + tau)
	if tau < 0.5*thresh {
		tau, s.tau = 0, 0
	}
	if tau != 0 {
		thresh = math.Inf(-1)
	}
	emin := z[4*i0+pp+1]
	d := z[4*i0+pp-3] - tau
	dmin := d
	for i := i0; i <= n0-3; i++ {
		b := 4*i - 3
		q := d + z[b+2+pp]
		z[b+1-pp] = q
		t := z[b+4+pp] / q
		// Fused, the step's dependence chain is an add, a divide and one
		// multiply-add; math.FMA rounds the same everywhere.
		d = math.FMA(d, t, -tau)
		if d < thresh {
			d = 0
		}
		dmin = min(dmin, d)
		e := z[b+2+pp] * t
		z[b+3-pp] = e
		emin = min(emin, e)
	}
	// The last two steps, recording the d and the minima shift reads.
	s.dn2, s.dmin2 = d, dmin
	for i := n0 - 2; i < n0; i++ {
		b := 4*i - 3
		q := d + z[b+2+pp]
		z[b+1-pp] = q
		next := z[b+4+pp]
		z[b+3-pp] = next * (z[b+2+pp] / q)
		d = next*(d/q) - tau
		dmin = min(dmin, d)
		if i == n0-2 {
			s.dn1, s.dmin1 = d, dmin
		}
	}
	s.dn, s.dmin = d, dmin
	z[4*n0-2-pp] = d
	z[4*n0-pp] = emin
}

// transformSafe is a zero-shift dqd transform guarded against underflow
// and division by zero (xLASQ6).
func (s *qd) transformSafe(i0, n0 int) {
	if n0-i0-1 <= 0 {
		return
	}
	z, pp := s.z, s.pp
	emin := z[4*i0+pp+1]
	d := z[4*i0+pp-3]
	dmin := d
	for i := i0; i < n0; i++ {
		switch i {
		case n0 - 2:
			s.dn2, s.dmin2 = d, dmin
		case n0 - 1:
			s.dn1, s.dmin1 = d, dmin
		}
		b := 4*i - 3
		e, next := z[b+2+pp], z[b+4+pp]
		q := d + e
		z[b+1-pp] = q
		switch {
		case q == 0:
			e, d, emin = 0, next, 0
			dmin = d
		case safmin*next < q && safmin*q < next:
			t := next / q
			e *= t
			d *= t
		default:
			e = next * (e / q)
			d = next * (d / q)
		}
		z[b+3-pp] = e
		dmin = min(dmin, d)
		if i < n0-2 {
			emin = min(emin, e)
		}
	}
	s.dn, s.dmin = d, dmin
	z[4*n0-2-pp] = d
	z[4*n0-pp] = emin
}

// shift chooses τ for the next transform of the block [i0, n0], n0in its
// bottom before the deflations of this step (xLASQ4). It aims just below
// the smallest eigenvalue, estimated from the last transform's smallest
// and last d; ttype records which case chose it, and a failed transform
// lowers it by 11 or 12 (step). Wherever an estimate cannot be trusted
// the conservative fraction of dmin set beforehand stands.
func (s *qd) shift(i0, n0, n0in int) {
	const (
		cnst1 = 0.563
		cnst2 = 1.01
		cnst3 = 1.05
		third = 0.333
	)
	// A negative dmin is the negated shift to take. A zero one is a d
	// flushed by a zero-shift transform, which calls for another, unless
	// that d has deflated since: then the cases that read dmin1 and dmin2
	// price the rest of the block (LAPACK takes the zero shift there too,
	// which costs one transform per eigenvalue).
	if s.dmin < 0 || s.dmin == 0 && n0 == n0in {
		s.tau, s.ttype = -s.dmin, -1
		return
	}
	z, pp := s.z, s.pp
	nn := 4*n0 + pp
	// tail sums the ratios e/q up the block from z[from] down, starting
	// with b2 into a2: an estimate of the contribution of the rest of the block
	// to the squared norm of the eigenvector. ok is false when a ratio
	// exceeds 1 and the estimate is void.
	tail := func(a2, b2 float64, from int) (float64, bool) {
		for i := from; i >= 4*i0-1+pp; i -= 4 {
			if b2 == 0 {
				break
			}
			b1 := b2
			if z[i] > z[i-2] {
				return 0, false
			}
			b2 *= z[i] / z[i-2]
			a2 += b2
			if 100*max(b2, b1) < a2 || cnst1 < a2 {
				break
			}
		}
		return a2, true
	}
	var tau float64
	switch {
	case n0in == n0 && (s.dmin == s.dn || s.dmin == s.dn1):
		b1 := math.Sqrt(z[nn-3]) * math.Sqrt(z[nn-5])
		b2 := math.Sqrt(z[nn-7]) * math.Sqrt(z[nn-9])
		a2 := z[nn-7] + z[nn-5]
		if s.dmin == s.dn && s.dmin1 == s.dn1 {
			// Cases 2 and 3: the two smallest d are the last two.
			gap2 := s.dmin2 - a2 - s.dmin2*0.25
			var gap1 float64
			if gap2 > 0 && gap2 > b2 {
				gap1 = a2 - s.dn - (b2/gap2)*b2
			} else {
				gap1 = a2 - s.dn - (b1 + b2)
			}
			if gap1 > 0 && gap1 > b1 {
				tau = max(s.dn-(b1/gap1)*b1, 0.5*s.dmin)
				s.ttype = -2
			} else {
				if s.dn > b1 {
					tau = s.dn - b1
				}
				if a2 > b1+b2 {
					tau = min(tau, a2-(b1+b2))
				}
				tau = max(tau, third*s.dmin)
				s.ttype = -3
			}
			break
		}
		// Case 4: a Rayleigh-quotient residual bound.
		s.ttype = -4
		tau = 0.25 * s.dmin
		var gam float64
		var np int
		if s.dmin == s.dn {
			gam, a2 = s.dn, 0
			if z[nn-5] > z[nn-7] {
				break
			}
			b2 = z[nn-5] / z[nn-7]
			np = nn - 9
		} else {
			np = nn - 2*pp
			gam = s.dn1
			if z[np-4] > z[np-2] || z[nn-9] > z[nn-11] {
				break
			}
			a2 = z[np-4] / z[np-2]
			b2 = z[nn-9] / z[nn-11]
			np = nn - 13
		}
		a2, ok := tail(a2+b2, b2, np)
		if !ok {
			break
		}
		a2 *= cnst3
		if a2 < cnst1 {
			tau = gam * (1 - math.Sqrt(a2)) / (1 + a2)
		}
	case n0in == n0 && s.dmin == s.dn2:
		// Case 5: the smallest d is the third last.
		s.ttype = -5
		tau = 0.25 * s.dmin
		np := nn - 2*pp
		b1, b2 := z[np-2], z[np-6]
		if z[np-8] > b2 || z[np-4] > b1 {
			break
		}
		a2 := (z[np-8] / b2) * (1 + z[np-4]/b1)
		if n0-i0 > 2 {
			b2 = z[nn-13] / z[nn-15]
			var ok bool
			if a2, ok = tail(a2+b2, b2, nn-17); !ok {
				break
			}
			a2 *= cnst3
		}
		if a2 < cnst1 {
			tau = s.dn2 * (1 - math.Sqrt(a2)) / (1 + a2)
		}
	case n0in == n0:
		// Case 6: nothing to go by; damp dmin, less after each repeat.
		switch s.ttype {
		case -6:
			s.g += third * (1 - s.g)
		case -18:
			s.g = 0.25 * third
		default:
			s.g = 0.25
		}
		tau = s.g * s.dmin
		s.ttype = -6
	case n0in == n0+1 && s.dmin1 == s.dn1 && s.dmin2 == s.dn2:
		// Cases 7 and 8: one eigenvalue just deflated; dmin1 and dn1 stand
		// for dmin and dn.
		s.ttype = -7
		tau = third * s.dmin1
		if z[nn-5] > z[nn-7] {
			break
		}
		b1 := z[nn-5] / z[nn-7]
		b2 := b1
		if b2 != 0 {
			for i4 := 4*n0 - 9 + pp; i4 >= 4*i0-1+pp; i4 -= 4 {
				a2 := b1
				if z[i4] > z[i4-2] {
					s.tau = tau
					return
				}
				b1 *= z[i4] / z[i4-2]
				b2 += b1
				if 100*max(b1, a2) < b2 {
					break
				}
			}
		}
		b2 = math.Sqrt(cnst3 * b2)
		a2 := s.dmin1 / (1 + b2*b2)
		if gap2 := 0.5*s.dmin2 - a2; gap2 > 0 && gap2 > b2*a2 {
			tau = max(tau, a2*(1-cnst2*a2*(b2/gap2)*b2))
		} else {
			tau = max(tau, a2*(1-cnst2*b2))
			s.ttype = -8
		}
	case n0in == n0+1:
		// Case 9.
		tau = 0.25 * s.dmin1
		if s.dmin1 == s.dn1 {
			tau = 0.5 * s.dmin1
		}
		s.ttype = -9
	case n0in == n0+2 && s.dmin2 == s.dn2 && 2*z[nn-5] < z[nn-7]:
		// Case 10: two eigenvalues just deflated; dmin2 and dn2 stand for
		// dmin and dn.
		s.ttype = -10
		tau = third * s.dmin2
		if z[nn-5] > z[nn-7] {
			break
		}
		b1 := z[nn-5] / z[nn-7]
		b2 := b1
		if b2 != 0 {
			for i4 := 4*n0 - 9 + pp; i4 >= 4*i0-1+pp; i4 -= 4 {
				if z[i4] > z[i4-2] {
					s.tau = tau
					return
				}
				b1 *= z[i4] / z[i4-2]
				b2 += b1
				if 100*b1 < b2 {
					break
				}
			}
		}
		b2 = math.Sqrt(cnst3 * b2)
		a2 := s.dmin2 / (1 + b2*b2)
		gap2 := z[nn-7] + z[nn-9] - math.Sqrt(z[nn-11])*math.Sqrt(z[nn-9]) - a2
		if gap2 > 0 && gap2 > b2*a2 {
			tau = max(tau, a2*(1-cnst2*a2*(b2/gap2)*b2))
		} else {
			tau = max(tau, a2*(1-cnst2*b2))
		}
	case n0in == n0+2:
		// Case 11.
		tau = 0.25 * s.dmin2
		s.ttype = -11
	default:
		// Case 12: more than two eigenvalues deflated.
		tau = 0
		s.ttype = -12
	}
	s.tau = tau
}
