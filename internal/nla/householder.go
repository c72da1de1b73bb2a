package nla

import "math"

// Larfg generates an elementary Householder reflector H of order n = len(x)+1
// such that
//
//	H * [alpha]   [beta]
//	    [  x  ] = [ 0  ],   H = I - tau * v * vᵀ,  v = [1; x_out],  Hᵀ = H.
//
// On return x is overwritten with the tail of v. The routine follows LAPACK
// dlarfg, including the rescaling loop that protects against underflow when
// the input column is tiny.
func Larfg(alpha float64, x []float64) (beta, tau float64) {
	xnorm := nrm2(x)
	if xnorm == 0 {
		// H = I. beta = alpha, tau = 0, v = e1.
		return alpha, 0
	}
	beta = -math.Copysign(lapy2(alpha, xnorm), alpha)
	const safmin = 0x1p-1022 / (2 * 0x1p-52) // dlamch('S')/dlamch('E'), as in dlarfg
	knt := 0
	if math.Abs(beta) < safmin {
		// xnorm and beta may be inaccurate; scale x and recompute.
		rsafmn := 1 / safmin
		for math.Abs(beta) < safmin && knt < 20 {
			knt++
			Scal(rsafmn, x)
			beta *= rsafmn
			alpha *= rsafmn
		}
		xnorm = nrm2(x)
		beta = -math.Copysign(lapy2(alpha, xnorm), alpha)
	}
	tau = (beta - alpha) / beta
	Scal(1/(alpha-beta), x)
	for k := 0; k < knt; k++ {
		beta *= safmin
	}
	return beta, tau
}

// nrm2 returns the Euclidean norm of x. The plain sum of squares is good
// to rounding whenever it lands in [2⁻⁹⁰⁰, 2⁹⁰⁰]: nothing overflowed, and
// a square that underflowed is below 2⁻¹²² of the sum. Only outside that
// range — all zeros, entries around 2^±498 as in the scaled accuracy
// cases, subnormals, the columns Larfg's rescaling loop exists for — is
// the vector walked again, scaled by the power of two that brings its
// largest entry near one. A power of two commutes with every rounding of
// the sum, so nrm2(2ᵏ·x) = 2ᵏ·nrm2(x) exactly on either path and across
// them, as it did with dnrm2's running scale.
func nrm2(x []float64) float64 {
	ssq := sumSquares(x, 1)
	if ssq >= 0x1p-900 && ssq <= 0x1p900 {
		return math.Sqrt(ssq)
	}
	var amax float64
	for _, v := range x {
		amax = max(amax, math.Abs(v)) // NaN if any entry is
	}
	if amax == 0 || math.IsNaN(amax) || math.IsInf(amax, 0) {
		return amax
	}
	_, k := math.Frexp(amax)
	k = max(k, -1000) // 2^−k must be a float64; subnormals end up near 2⁻⁷⁴
	return math.Ldexp(math.Sqrt(sumSquares(x, math.Ldexp(1, -k))), k)
}

// sumSquares returns Σ (f·x_i)² over four interleaved partial sums.
func sumSquares(x []float64, f float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		a, b, c, d := f*x[i], f*x[i+1], f*x[i+2], f*x[i+3]
		s0 += a * a
		s1 += b * b
		s2 += c * c
		s3 += d * d
	}
	for ; i < len(x); i++ {
		a := f * x[i]
		s0 += a * a
	}
	return (s0 + s1) + (s2 + s3)
}

// lapy2 returns sqrt(x²+y²) without unnecessary overflow (dlapy2).
func lapy2(x, y float64) float64 {
	ax, ay := math.Abs(x), math.Abs(y)
	w, z := ax, ay
	if ay > ax {
		w, z = ay, ax
	}
	if z == 0 {
		return w
	}
	r := z / w
	return w * math.Sqrt(1+r*r)
}

// ApplyReflectorLeft overwrites C with H*C where H = I - tau*v*vᵀ and
// v = [1; vtail]. C must have len(vtail)+1 rows.
func ApplyReflectorLeft(tau float64, vtail []float64, c *Matrix) {
	if tau == 0 {
		return
	}
	for j := 0; j < c.Cols; j++ {
		col := c.Data[j*c.LD : j*c.LD+c.Rows]
		w := col[0] + Dot(vtail, col[1:])
		w *= tau
		col[0] -= w
		Axpy(-w, vtail, col[1:])
	}
}

// ApplyReflectorRight overwrites C with C*H where H = I - tau*v*vᵀ and
// v = [1; vtail]. C must have len(vtail)+1 columns.
func ApplyReflectorRight(tau float64, vtail []float64, c *Matrix) {
	if tau == 0 {
		return
	}
	n := len(vtail)
	for i := 0; i < c.Rows; i++ {
		w := c.Data[i]
		for k := 0; k < n; k++ {
			w += c.Data[i+(k+1)*c.LD] * vtail[k]
		}
		w *= tau
		c.Data[i] -= w
		for k := 0; k < n; k++ {
			c.Data[i+(k+1)*c.LD] -= w * vtail[k]
		}
	}
}
