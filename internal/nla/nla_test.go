package nla

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(3, 5)
	if m.Rows != 3 || m.Cols != 5 || m.LD != 3 || len(m.Data) != 15 {
		t.Fatalf("unexpected shape %+v", m)
	}
}

func TestAtSetAdd(t *testing.T) {
	m := NewMatrix(4, 4)
	m.Set(2, 3, 7)
	m.Add(2, 3, 1)
	if got := m.At(2, 3); got != 8 {
		t.Fatalf("At(2,3) = %v, want 8", got)
	}
	if m.Data[2+3*4] != 8 {
		t.Fatalf("column-major layout violated")
	}
}

func TestViewSharesStorage(t *testing.T) {
	m := NewMatrix(6, 6)
	v := m.View(2, 3, 3, 2)
	v.Set(0, 0, 42)
	if m.At(2, 3) != 42 {
		t.Fatalf("view does not alias parent")
	}
	if v.Rows != 3 || v.Cols != 2 {
		t.Fatalf("bad view shape")
	}
}

func TestViewOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewMatrix(3, 3).View(1, 1, 3, 3)
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandomMatrix(rng, 5, 4)
	c := m.Clone()
	c.Set(0, 0, 999)
	if m.At(0, 0) == 999 {
		t.Fatalf("clone aliases source")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := RandomMatrix(rng, 4, 7)
	tr := m.Transpose()
	for i := 0; i < 4; i++ {
		for j := 0; j < 7; j++ {
			if tr.At(j, i) != m.At(i, j) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	if e := OrthogonalityError(id); e != 0 {
		t.Fatalf("identity not orthogonal: %v", e)
	}
}

func TestGemmAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][3]int{{3, 4, 5}, {1, 1, 1}, {7, 2, 9}, {5, 5, 5}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := RandomMatrix(rng, m, k)
		b := RandomMatrix(rng, k, n)
		c := MulAB(a, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var want float64
				for l := 0; l < k; l++ {
					want += a.At(i, l) * b.At(l, j)
				}
				if math.Abs(c.At(i, j)-want) > 1e-12 {
					t.Fatalf("gemm mismatch at (%d,%d): got %v want %v", i, j, c.At(i, j), want)
				}
			}
		}
	}
}

func TestGemmTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandomMatrix(rng, 6, 4)
	b := RandomMatrix(rng, 6, 5)
	// C = AᵀB via MulATB vs explicit transpose.
	c1 := MulATB(a, b)
	c2 := MulAB(a.Transpose(), b)
	if diffMax(c1, c2) > 1e-13 {
		t.Fatalf("MulATB disagrees with explicit transpose")
	}
	// C = A Bᵀ with compatible shapes.
	d := RandomMatrix(rng, 5, 4)
	c3 := MulABT(a, d)
	c4 := MulAB(a, d.Transpose())
	if diffMax(c3, c4) > 1e-13 {
		t.Fatalf("MulABT disagrees with explicit transpose")
	}
	// transA && transB path.
	e := NewMatrix(4, 5)
	Gemm(true, true, 1, a, b.Transpose(), 0, e)
	f := MulAB(a.Transpose(), b)
	if diffMax(e, f) > 1e-13 {
		t.Fatalf("Gemm(T,T) disagrees")
	}
}

func TestGemmBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := RandomMatrix(rng, 3, 3)
	b := RandomMatrix(rng, 3, 3)
	c := RandomMatrix(rng, 3, 3)
	want := c.Clone()
	Gemm(false, false, 2, a, b, 3, c)
	ab := MulAB(a, b)
	for j := 0; j < 3; j++ {
		for i := 0; i < 3; i++ {
			w := 2*ab.At(i, j) + 3*want.At(i, j)
			if math.Abs(c.At(i, j)-w) > 1e-12 {
				t.Fatalf("beta path wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 3)
	m.Set(1, 1, 4)
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-15 {
		t.Fatalf("‖m‖F = %v, want 5", got)
	}
}

func TestFrobeniusNormScaling(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Set(0, 0, 1e300)
	m.Set(0, 1, 1e300)
	got := m.FrobeniusNorm()
	want := 1e300 * math.Sqrt(2)
	if math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("overflow-safe norm failed: %v", got)
	}
}

func TestMaxAbs(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, -9)
	m.Set(0, 0, 3)
	if got := m.MaxAbs(); got != 9 {
		t.Fatalf("MaxAbs = %v, want 9", got)
	}
}

func TestLarfgAnnihilates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		alpha := rng.NormFloat64()
		x := make([]float64, n)
		orig := make([]float64, n+1)
		orig[0] = alpha
		for i := range x {
			x[i] = rng.NormFloat64()
			orig[i+1] = x[i]
		}
		beta, tau := Larfg(alpha, x)
		// Apply H to the original column: the result must be beta*e1.
		c := NewMatrix(n+1, 1)
		copy(c.Data, orig)
		ApplyReflectorLeft(tau, x, c)
		if math.Abs(c.At(0, 0)-beta) > 1e-12*math.Max(1, math.Abs(beta)) {
			t.Fatalf("beta mismatch: got %v want %v", c.At(0, 0), beta)
		}
		for i := 1; i <= n; i++ {
			if math.Abs(c.At(i, 0)) > 1e-12 {
				t.Fatalf("tail not annihilated: %v at %d", c.At(i, 0), i)
			}
		}
		// beta preserves the norm of the input column.
		if math.Abs(math.Abs(beta)-nrm2(orig)) > 1e-12*math.Max(1, nrm2(orig)) {
			t.Fatalf("norm not preserved")
		}
	}
}

func TestLarfgZeroTail(t *testing.T) {
	x := []float64{0, 0, 0}
	beta, tau := Larfg(5, x)
	if tau != 0 || beta != 5 {
		t.Fatalf("zero tail should give identity reflector, got beta=%v tau=%v", beta, tau)
	}
}

func TestLarfgTinyInput(t *testing.T) {
	x := []float64{1e-310, 2e-310}
	beta, tau := Larfg(3e-310, x)
	if math.IsNaN(beta) || math.IsNaN(tau) || beta == 0 {
		t.Fatalf("rescaling failed: beta=%v tau=%v", beta, tau)
	}
	want := math.Sqrt(9+1+4) * 1e-310
	if math.Abs(math.Abs(beta)-want)/want > 1e-10 {
		t.Fatalf("tiny-input beta wrong: %v want %v", beta, want)
	}
}

func TestReflectorOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 8
	x := make([]float64, n-1)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	_, tau := Larfg(rng.NormFloat64(), x)
	h := Identity(n)
	ApplyReflectorLeft(tau, x, h)
	if e := OrthogonalityError(h); e > 1e-14 {
		t.Fatalf("H not orthogonal: %v", e)
	}
}

func TestApplyReflectorRightMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 6
	x := make([]float64, n-1)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	_, tau := Larfg(rng.NormFloat64(), x)
	c := RandomMatrix(rng, 4, n)
	// C*H computed directly vs (Hᵀ*Cᵀ)ᵀ = (H*Cᵀ)ᵀ since H is symmetric.
	direct := c.Clone()
	ApplyReflectorRight(tau, x, direct)
	ct := c.Transpose()
	ApplyReflectorLeft(tau, x, ct)
	if diffMax(direct, ct.Transpose()) > 1e-13 {
		t.Fatalf("right application disagrees with transpose duality")
	}
}

func TestRandomOrthogonalPreservesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := RandomMatrix(rng, 10, 6)
	want := a.FrobeniusNorm()
	ApplyRandomOrthogonalLeft(rng, 5, a)
	ApplyRandomOrthogonalRight(rng, 5, a)
	if math.Abs(a.FrobeniusNorm()-want) > 1e-11*want {
		t.Fatalf("orthogonal application changed the norm: %v -> %v", want, a.FrobeniusNorm())
	}
}

func TestDotAxpyScal(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("dot wrong")
	}
	Axpy(2, x, y)
	if y[0] != 6 || y[1] != 9 || y[2] != 12 {
		t.Fatalf("axpy wrong: %v", y)
	}
	Scal(0.5, y)
	if y[0] != 3 || y[1] != 4.5 || y[2] != 6 {
		t.Fatalf("scal wrong: %v", y)
	}
}

// Property: for any column, Larfg produces a reflector that annihilates it
// and preserves its Euclidean norm.
func TestLarfgProperty(t *testing.T) {
	f := func(alpha float64, tail []float64) bool {
		if len(tail) == 0 || len(tail) > 32 {
			return true
		}
		for _, v := range tail {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e100 {
			return true
		}
		col := make([]float64, len(tail)+1)
		col[0] = alpha
		copy(col[1:], tail)
		norm := nrm2(col)
		x := append([]float64(nil), tail...)
		beta, tau := Larfg(alpha, x)
		c := NewMatrix(len(col), 1)
		copy(c.Data, col)
		ApplyReflectorLeft(tau, x, c)
		tol := 1e-11 * math.Max(1, norm)
		if math.Abs(c.At(0, 0)-beta) > tol {
			return false
		}
		for i := 1; i < len(col); i++ {
			if math.Abs(c.At(i, 0)) > tol {
				return false
			}
		}
		return math.Abs(math.Abs(beta)-norm) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gemm is linear in its left argument.
func TestGemmLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a1 := RandomMatrix(r, m, k)
		a2 := RandomMatrix(r, m, k)
		b := RandomMatrix(r, k, n)
		sum := NewMatrix(m, k)
		for i := range sum.Data {
			sum.Data[i] = a1.Data[i] + a2.Data[i]
		}
		left := MulAB(sum, b)
		right := MulAB(a1, b)
		r2 := MulAB(a2, b)
		for i := range right.Data {
			right.Data[i] += r2.Data[i]
		}
		return diffMax(left, right) < 1e-12
	}
	for i := 0; i < 30; i++ {
		if !f(rng.Int63()) {
			t.Fatalf("linearity violated")
		}
	}
}

func diffMax(a, b *Matrix) float64 {
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

// The little-endian float64 codec is bit-exact both ways and writes the
// byte order every wire format in the tree documents.
func TestFloat64sLE(t *testing.T) {
	src := []float64{1, math.Copysign(0, -1), 5e-324, math.Inf(-1), math.Float64frombits(0x7ff8000000000abc)}
	buf := make([]byte, 8*len(src)+3)
	PutFloat64sLE(buf, src)
	if got := buf[:8]; string(got) != "\x00\x00\x00\x00\x00\x00\xf0\x3f" {
		t.Fatalf("1.0 encoded as % x", got)
	}
	dst := make([]float64, len(src))
	Float64sFromLE(dst, buf)
	for i := range src {
		if math.Float64bits(dst[i]) != math.Float64bits(src[i]) {
			t.Fatalf("element %d: %x round-tripped to %x", i, math.Float64bits(src[i]), math.Float64bits(dst[i]))
		}
	}
}

// dnrm2 is the reference norm: one compare and two divisions per element,
// no intermediate overflow or underflow at any magnitude.
func dnrm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			ssq = 1 + ssq*(scale/av)*(scale/av)
			scale = av
		} else {
			ssq += (av / scale) * (av / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// nrm2 takes a plain sum of squares and walks the vector again, scaled,
// only when that sum is outside a safe range. Both must give the norm at
// every magnitude Larfg is handed — the 2^±498 scalings of the accuracy
// suite, subnormal columns (what Larfg's rescaling loop is for), zeros,
// mixtures whose small entries' squares underflow — and the two must
// commute with a power-of-two scaling bit for bit, which
// band.TestReduceScalesExactly relies on.
func TestNrm2AcrossMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base := make([]float64, 67)
	for i := range base {
		base[i] = 2*rng.Float64() - 1
	}
	want := nrm2(base)
	if ref := dnrm2(base); math.Abs(want-ref) > 4*0x1p-52*ref {
		t.Fatalf("nrm2 = %g, dnrm2 gives %g", want, ref)
	}
	for _, e := range []int{498, -498, 449, -449, 451, -451, 1020 - 67, -950, -1022, -1060} {
		x := make([]float64, len(base))
		for i, v := range base {
			x[i] = math.Ldexp(v, e)
		}
		got, ref := nrm2(x), dnrm2(x)
		if math.Abs(got-ref) > 4*0x1p-52*ref {
			t.Errorf("scale 2^%d: nrm2 = %g, dnrm2 gives %g", e, got, ref)
		}
		// While the scaled entries stay normal the scaling is exact, and
		// so must the norm's be; further down they are rounded.
		if e > -960 && got != math.Ldexp(want, e) {
			t.Errorf("scale 2^%d: nrm2 = %g, want exactly %g", e, got, math.Ldexp(want, e))
		}
	}
	if got := nrm2(make([]float64, 9)); got != 0 {
		t.Errorf("nrm2 of zeros = %g", got)
	}
	if got := nrm2(nil); got != 0 {
		t.Errorf("nrm2 of nothing = %g", got)
	}
	// Entries of order one among entries whose squares underflow, and
	// huge entries among ordinary ones.
	if got := nrm2([]float64{0x1p-600, 3, 0x1p-600, 4, 0, 0x1p-1070}); got != 5 {
		t.Errorf("nrm2 with underflowing squares = %g, want 5", got)
	}
	if got, ref := nrm2([]float64{3 * 0x1p600, 1, 4 * 0x1p600, -1, 1}), 5*0x1p600; got != ref {
		t.Errorf("nrm2 with overflowing squares = %g, want %g", got, ref)
	}
	if got := nrm2([]float64{0x1p-1074, 0, 0x1p-1074}); math.Abs(got-math.Sqrt2*0x1p-1074) > 0x1p-1074 {
		t.Errorf("nrm2 of the smallest subnormals = %g", got)
	}
	if got := nrm2([]float64{1, math.NaN(), 2}); !math.IsNaN(got) {
		t.Errorf("nrm2 with a NaN = %g", got)
	}
	if got := nrm2([]float64{1, math.Inf(-1), 2}); !math.IsInf(got, 1) {
		t.Errorf("nrm2 with an infinity = %g", got)
	}
	// Larfg on a 2^-1060 column: the rescaling loop must still run and
	// still annihilate.
	tiny := make([]float64, len(base))
	for i, v := range base {
		tiny[i] = math.Ldexp(v, -1060)
	}
	alpha := math.Ldexp(0.5, -1060)
	norm := math.Hypot(alpha, dnrm2(tiny))
	beta, tau := Larfg(alpha, tiny)
	if tau <= 1 || tau > 2 || math.Abs(math.Abs(beta)-norm) > 0x1p-1070 {
		t.Errorf("Larfg on a subnormal column: beta = %g (norm %g), tau = %g", beta, norm, tau)
	}
}
