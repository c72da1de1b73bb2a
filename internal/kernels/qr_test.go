package kernels

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tiled-la/bidiag/internal/nla"
)

const tol = 1e-12

// explicitQ forms the dense orthogonal factor Q = I − V·T·Vᵀ for a compact
// WY pair (V full, including unit tops), used as an oracle in tests.
func explicitQ(v, t *nla.Matrix) *nla.Matrix {
	n := v.Rows
	k := v.Cols
	q := nla.Identity(n)
	// Q = I - V T Vᵀ.
	tmp := nla.NewMatrix(k, n)
	nla.Gemm(false, true, 1, t, v, 0, tmp) // T Vᵀ
	nla.Gemm(false, false, -1, v, tmp, 1, q)
	return q
}

// unitLowerV extracts the full V (with unit diagonal, zeros above) from a
// GEQRT-factored tile.
func unitLowerV(a *nla.Matrix, k int) *nla.Matrix {
	v := nla.NewMatrix(a.Rows, k)
	for j := 0; j < k; j++ {
		v.Set(j, j, 1)
		for i := j + 1; i < a.Rows; i++ {
			v.Set(i, j, a.At(i, j))
		}
	}
	return v
}

// upperR extracts the upper-triangular/trapezoidal R from a factored tile.
func upperR(a *nla.Matrix) *nla.Matrix {
	r := nla.NewMatrix(a.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		for i := 0; i <= j && i < a.Rows; i++ {
			r.Set(i, j, a.At(i, j))
		}
	}
	return r
}

func TestGEQRTReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{8, 8}, {12, 5}, {5, 5}, {9, 3}, {3, 7}, {1, 1}, {4, 1}, {1, 4}} {
		m, n := dims[0], dims[1]
		a := nla.RandomMatrix(rng, m, n)
		orig := a.Clone()
		k := min(m, n)
		tm := nla.NewMatrix(k, k)
		tau := make([]float64, k)
		GEQRT(a, tm, tau, nil)

		v := unitLowerV(a, k)
		q := explicitQ(v, tm)
		if e := nla.OrthogonalityError(q); e > tol {
			t.Fatalf("GEQRT(%dx%d): Q not orthogonal: %g", m, n, e)
		}
		qr := nla.MulAB(q, upperR(a))
		if d := maxDiff(qr, orig); d > tol {
			t.Fatalf("GEQRT(%dx%d): ‖QR − A‖ = %g", m, n, d)
		}
	}
}

func TestGEQRTTauDiagonalOfT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := nla.RandomMatrix(rng, 7, 7)
	tm := nla.NewMatrix(7, 7)
	tau := make([]float64, 7)
	GEQRT(a, tm, tau, nil)
	for i := 0; i < 7; i++ {
		if tm.At(i, i) != tau[i] {
			t.Fatalf("T diagonal should equal tau")
		}
	}
}

func TestUNMQRAppliesQT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][2]int{{8, 8}, {10, 4}} {
		m, n := dims[0], dims[1]
		a := nla.RandomMatrix(rng, m, n)
		orig := a.Clone()
		k := min(m, n)
		tm := nla.NewMatrix(k, k)
		tau := make([]float64, k)
		GEQRT(a, tm, tau, nil)

		// Qᵀ·A_orig must equal R (padded with zeros below).
		c := orig.Clone()
		UNMQR(true, k, a, tm, c, nil)
		r := upperR(a)
		if d := maxDiff(c, r); d > tol {
			t.Fatalf("UNMQR(trans) does not reproduce R: %g", d)
		}

		// Q·(Qᵀ·C) must round-trip a random C.
		c2 := nla.RandomMatrix(rng, m, 6)
		want := c2.Clone()
		UNMQR(true, k, a, tm, c2, nil)
		UNMQR(false, k, a, tm, c2, nil)
		if d := maxDiff(c2, want); d > tol {
			t.Fatalf("UNMQR round trip failed: %g", d)
		}
	}
}

func TestUNMQRMatchesExplicitQ(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, n := 9, 6
	a := nla.RandomMatrix(rng, m, n)
	tm := nla.NewMatrix(n, n)
	tau := make([]float64, n)
	GEQRT(a, tm, tau, nil)
	q := explicitQ(unitLowerV(a, n), tm)

	c := nla.RandomMatrix(rng, m, 5)
	got := c.Clone()
	UNMQR(true, n, a, tm, got, nil)
	want := nla.MulATB(q, c)
	if d := maxDiff(got, want); d > tol {
		t.Fatalf("UNMQR disagrees with explicit Qᵀ: %g", d)
	}
}

func TestTSQRTReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][2]int{{6, 6}, {4, 6}, {9, 5}, {1, 3}} {
		m2, n := dims[0], dims[1]
		// Start from an upper-triangular R1 and a dense A2.
		r1 := upperR(nla.RandomMatrix(rng, n, n))
		a2 := nla.RandomMatrix(rng, m2, n)
		r1in, a2in := r1.Clone(), a2.Clone()
		tm := nla.NewMatrix(n, n)
		tau := make([]float64, n)
		TSQRT(r1, a2, tm, tau, nil)

		// Oracle: V = [I; V2], Q = I − V T Vᵀ; Qᵀ[R1in; A2in] = [R1out; 0].
		v := nla.NewMatrix(n+m2, n)
		for j := 0; j < n; j++ {
			v.Set(j, j, 1)
			for i := 0; i < m2; i++ {
				v.Set(n+i, j, a2.At(i, j))
			}
		}
		q := explicitQ(v, tm)
		if e := nla.OrthogonalityError(q); e > tol {
			t.Fatalf("TSQRT(%d,%d): Q not orthogonal: %g", m2, n, e)
		}
		stacked := nla.NewMatrix(n+m2, n)
		nla.CopyInto(stacked.View(0, 0, n, n), r1in)
		nla.CopyInto(stacked.View(n, 0, m2, n), a2in)
		res := nla.MulATB(q, stacked)
		if d := maxDiff(res.View(0, 0, n, n), upperR(r1)); d > tol {
			t.Fatalf("TSQRT(%d,%d): R mismatch: %g", m2, n, d)
		}
		if mx := res.View(n, 0, m2, n).MaxAbs(); mx > tol {
			t.Fatalf("TSQRT(%d,%d): A2 not annihilated: %g", m2, n, mx)
		}
	}
}

func TestTSMQRMatchesExplicitQ(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, m2, nc := 5, 7, 4
	r1 := upperR(nla.RandomMatrix(rng, n, n))
	a2 := nla.RandomMatrix(rng, m2, n)
	tm := nla.NewMatrix(n, n)
	tau := make([]float64, n)
	TSQRT(r1, a2, tm, tau, nil)
	v := nla.NewMatrix(n+m2, n)
	for j := 0; j < n; j++ {
		v.Set(j, j, 1)
		for i := 0; i < m2; i++ {
			v.Set(n+i, j, a2.At(i, j))
		}
	}
	q := explicitQ(v, tm)

	for _, trans := range []bool{true, false} {
		c1 := nla.RandomMatrix(rng, n, nc)
		c2 := nla.RandomMatrix(rng, m2, nc)
		stacked := nla.NewMatrix(n+m2, nc)
		nla.CopyInto(stacked.View(0, 0, n, nc), c1)
		nla.CopyInto(stacked.View(n, 0, m2, nc), c2)
		var want *nla.Matrix
		if trans {
			want = nla.MulATB(q, stacked)
		} else {
			want = nla.MulAB(q, stacked)
		}
		TSMQR(trans, n, a2, tm, c1, c2, nil)
		if d := maxDiff(c1, want.View(0, 0, n, nc)); d > tol {
			t.Fatalf("TSMQR trans=%v: C1 mismatch: %g", trans, d)
		}
		if d := maxDiff(c2, want.View(n, 0, m2, nc)); d > tol {
			t.Fatalf("TSMQR trans=%v: C2 mismatch: %g", trans, d)
		}
	}
}

func TestTSMQRTallC1(t *testing.T) {
	// C1 may have more rows than there are reflectors; extra rows must be
	// untouched (the edge-tile case of the tiled algorithm).
	rng := rand.New(rand.NewSource(7))
	n, m2 := 4, 5
	r1 := upperR(nla.RandomMatrix(rng, n, n))
	a2 := nla.RandomMatrix(rng, m2, n)
	tm := nla.NewMatrix(n, n)
	tau := make([]float64, n)
	TSQRT(r1, a2, tm, tau, nil)

	c1 := nla.RandomMatrix(rng, 7, 3) // 7 > n rows
	c2 := nla.RandomMatrix(rng, m2, 3)
	c1in := c1.Clone()
	TSMQR(true, n, a2, tm, c1, c2, nil)
	if d := maxDiff(c1.View(n, 0, 3, 3), c1in.View(n, 0, 3, 3)); d != 0 {
		t.Fatalf("rows beyond k modified: %g", d)
	}
}

func TestTTQRTReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, m2 := range []int{6, 4, 1} { // m2 ≤ k exercises the trapezoid
		k := 6
		r1 := upperR(nla.RandomMatrix(rng, k, k))
		r2 := upperR(nla.RandomMatrix(rng, m2, k))
		r1in, r2in := r1.Clone(), r2.Clone()
		tm := nla.NewMatrix(k, k)
		tau := make([]float64, k)
		TTQRT(r1, r2, tm, tau, nil)

		v := nla.NewMatrix(k+m2, k)
		for j := 0; j < k; j++ {
			v.Set(j, j, 1)
			for i := 0; i < min(j+1, m2); i++ {
				v.Set(k+i, j, r2.At(i, j))
			}
		}
		q := explicitQ(v, tm)
		if e := nla.OrthogonalityError(q); e > tol {
			t.Fatalf("TTQRT m2=%d: Q not orthogonal: %g", m2, e)
		}
		stacked := nla.NewMatrix(k+m2, k)
		nla.CopyInto(stacked.View(0, 0, k, k), r1in)
		nla.CopyInto(stacked.View(k, 0, m2, k), r2in)
		res := nla.MulATB(q, stacked)
		if d := maxDiff(res.View(0, 0, k, k), upperR(r1)); d > tol {
			t.Fatalf("TTQRT m2=%d: R mismatch: %g", m2, d)
		}
		if mx := res.View(k, 0, m2, k).MaxAbs(); mx > tol {
			t.Fatalf("TTQRT m2=%d: R2 not annihilated: %g", m2, mx)
		}
	}
}

func TestTTMQRMatchesExplicitQ(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	k, m2, nc := 5, 5, 3
	r1 := upperR(nla.RandomMatrix(rng, k, k))
	r2 := upperR(nla.RandomMatrix(rng, m2, k))
	tm := nla.NewMatrix(k, k)
	tau := make([]float64, k)
	TTQRT(r1, r2, tm, tau, nil)
	v := nla.NewMatrix(k+m2, k)
	for j := 0; j < k; j++ {
		v.Set(j, j, 1)
		for i := 0; i < min(j+1, m2); i++ {
			v.Set(k+i, j, r2.At(i, j))
		}
	}
	q := explicitQ(v, tm)

	for _, trans := range []bool{true, false} {
		c1 := nla.RandomMatrix(rng, k, nc)
		c2 := nla.RandomMatrix(rng, m2, nc)
		stacked := nla.NewMatrix(k+m2, nc)
		nla.CopyInto(stacked.View(0, 0, k, nc), c1)
		nla.CopyInto(stacked.View(k, 0, m2, nc), c2)
		var want *nla.Matrix
		if trans {
			want = nla.MulATB(q, stacked)
		} else {
			want = nla.MulAB(q, stacked)
		}
		TTMQR(trans, k, r2, tm, c1, c2, nil)
		if d := maxDiff(c1, want.View(0, 0, k, nc)); d > tol {
			t.Fatalf("TTMQR trans=%v: C1 mismatch: %g", trans, d)
		}
		if d := maxDiff(c2, want.View(k, 0, m2, nc)); d > tol {
			t.Fatalf("TTMQR trans=%v: C2 mismatch: %g", trans, d)
		}
	}
}

// Property test: a full QR elimination of a random panel of tiles (one
// GEQRT + a chain of TSQRT) keeps column norms consistent: the final R has
// the same Frobenius norm as the stacked input.
func TestTSQRTChainNormPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		nb := 2 + rng.Intn(5)
		rows := 2 + rng.Intn(4)
		tiles := make([]*nla.Matrix, rows)
		var ssq float64
		for i := range tiles {
			tiles[i] = nla.RandomMatrix(rng, nb, nb)
			f := tiles[i].FrobeniusNorm()
			ssq += f * f
		}
		tm := nla.NewMatrix(nb, nb)
		tau := make([]float64, nb)
		GEQRT(tiles[0], tm, tau, nil)
		for i := 1; i < rows; i++ {
			TSQRT(tiles[0], tiles[i], tm, tau, nil)
		}
		r := upperR(tiles[0])
		if math.Abs(r.FrobeniusNorm()-math.Sqrt(ssq)) > 1e-10*math.Sqrt(ssq) {
			t.Fatalf("panel elimination does not preserve norm")
		}
	}
}

func TestKindString(t *testing.T) {
	if GEQRTKind.String() != "GEQRT" || TTMLQKind.String() != "TTMLQ" || LASETKind.String() != "LASET" {
		t.Fatalf("kind names wrong")
	}
	if BRDSEGKind.String() != "BRDSEG" || BRDQPKind.String() != "BRDQP" || BDROTKind.String() != "BDROT" {
		t.Fatalf("band-stage kind names wrong")
	}
	if Kind(99).String() != "UNKNOWN" {
		t.Fatalf("out-of-range kind should be UNKNOWN")
	}
}

func TestTableIWeights(t *testing.T) {
	want := map[Kind]float64{
		GEQRTKind: 4, UNMQRKind: 6, TSQRTKind: 6, TSMQRKind: 12, TTQRTKind: 2, TTMQRKind: 6,
		GELQTKind: 4, UNMLQKind: 6, TSLQTKind: 6, TSMLQKind: 12, TTLQTKind: 2, TTMLQKind: 6,
		LACPYKind: 0, LASETKind: 0, BRDSEGKind: 0,
	}
	for k, w := range want {
		if Weight(k) != w {
			t.Fatalf("Weight(%v) = %v, want %v", k, Weight(k), w)
		}
	}
}

// Table I states kernel costs in units of nb³/3. Verify the flop formulas
// reproduce those ratios at m = n = k = nb.
func TestFlopFormulasMatchTableI(t *testing.T) {
	nb := 96
	unit := float64(nb*nb*nb) / 3
	checks := []struct {
		kind Kind
		got  float64
	}{
		{GEQRTKind, FlopsGEQRT(nb, nb)},
		{UNMQRKind, FlopsUNMQR(nb, nb, nb)},
		{TSQRTKind, FlopsTSQRT(nb, nb)},
		{TSMQRKind, FlopsTSMQR(nb, nb, nb)},
		{TTQRTKind, FlopsTTQRT(nb)},
		{TTMQRKind, FlopsTTMQR(nb, nb)},
		{GELQTKind, FlopsGELQT(nb, nb)},
		{UNMLQKind, FlopsUNMLQ(nb, nb, nb)},
		{TSLQTKind, FlopsTSLQT(nb, nb)},
		{TSMLQKind, FlopsTSMLQ(nb, nb, nb)},
		{TTLQTKind, FlopsTTLQT(nb)},
		{TTMLQKind, FlopsTTMLQ(nb, nb)},
	}
	for _, c := range checks {
		ratio := c.got / unit
		if math.Abs(ratio-Weight(c.kind)) > 0.01 {
			t.Errorf("%v: flops/unit = %.3f, Table I says %v", c.kind, ratio, Weight(c.kind))
		}
	}
}

func maxDiff(a, b *nla.Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	mx := 0.0
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if d := math.Abs(a.At(i, j) - b.At(i, j)); d > mx {
				mx = d
			}
		}
	}
	return mx
}
