package band

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tiled-la/bidiag/internal/jacobi"
	"github.com/tiled-la/bidiag/internal/nla"
)

func randomBand(seed int64, n, ku int) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	b := New(n, ku)
	for s := 0; s <= b.KU; s++ {
		for i := 0; i < n-s; i++ {
			b.diags[s][i] = 2*rng.Float64() - 1
		}
	}
	return b
}

func TestStorageAccess(t *testing.T) {
	b := New(6, 2)
	b.Set(1, 3, 5)
	if b.At(1, 3) != 5 {
		t.Fatalf("At/Set broken")
	}
	if b.At(3, 1) != 0 || b.At(0, 4) != 0 {
		t.Fatalf("outside band must read 0")
	}
	if b.InBand(0, 3) || !b.InBand(0, 2) {
		t.Fatalf("InBand wrong")
	}
}

func TestSetOutsideBandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	New(5, 1).Set(0, 3, 1)
}

func TestKUClamping(t *testing.T) {
	b := New(3, 10)
	if b.KU != 2 {
		t.Fatalf("KU should clamp to n-1, got %d", b.KU)
	}
}

func TestDenseRoundTrip(t *testing.T) {
	b := randomBand(1, 8, 3)
	d := b.ToDense()
	back := FromDense(d, 3)
	for s := 0; s <= 3; s++ {
		for i := 0; i < 8-s; i++ {
			if back.diags[s][i] != b.diags[s][i] {
				t.Fatalf("round trip mismatch")
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	b := randomBand(2, 6, 2)
	c := b.Clone()
	c.Set(0, 0, 99)
	if b.At(0, 0) == 99 {
		t.Fatalf("clone aliases")
	}
}

func TestFrobeniusNormMatchesDense(t *testing.T) {
	b := randomBand(3, 9, 4)
	if math.Abs(b.FrobeniusNorm()-b.ToDense().FrobeniusNorm()) > 1e-13 {
		t.Fatalf("norm mismatch")
	}
}

func TestBidiagonalExtraction(t *testing.T) {
	b := randomBand(4, 5, 1)
	d, e := b.Bidiagonal()
	if len(d) != 5 || len(e) != 4 {
		t.Fatalf("lengths wrong")
	}
	for i := 0; i < 5; i++ {
		if d[i] != b.At(i, i) {
			t.Fatalf("diag wrong")
		}
	}
	for i := 0; i < 4; i++ {
		if e[i] != b.At(i, i+1) {
			t.Fatalf("superdiag wrong")
		}
	}
}

func TestBidiagonalPanicsOnWideBand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	randomBand(5, 5, 2).Bidiagonal()
}

func TestReducePreservesSingularValues(t *testing.T) {
	for _, cfg := range [][2]int{{8, 2}, {12, 3}, {16, 5}, {20, 7}, {9, 8}, {30, 4}} {
		n, ku := cfg[0], cfg[1]
		b := randomBand(int64(10+n+ku), n, ku)
		want := jacobi.SingularValues(b.ToDense())
		r := Reduce(b)
		if r.KU > 1 {
			t.Fatalf("n=%d ku=%d: not bidiagonal after Reduce", n, ku)
		}
		got := jacobi.SingularValues(r.ToDense())
		if d := jacobi.MaxRelDiff(got, want); d > 1e-12 {
			t.Errorf("n=%d ku=%d: singular values off by %g", n, ku, d)
		}
	}
}

func TestReduceAlreadyBidiagonal(t *testing.T) {
	b := randomBand(6, 7, 1)
	r := Reduce(b)
	for i := 0; i < 7; i++ {
		if r.At(i, i) != b.At(i, i) {
			t.Fatalf("KU=1 input should be copied unchanged")
		}
	}
}

func TestReduceDiagonalInput(t *testing.T) {
	b := randomBand(7, 6, 0)
	r := Reduce(b)
	for i := 0; i < 6; i++ {
		if r.At(i, i) != b.At(i, i) {
			t.Fatalf("diagonal input unchanged")
		}
	}
}

func TestReduceEmptyAndTiny(t *testing.T) {
	if r := Reduce(New(0, 0)); r.N != 0 {
		t.Fatalf("empty")
	}
	b := New(1, 0)
	b.Set(0, 0, 3)
	if r := Reduce(b); r.At(0, 0) != 3 {
		t.Fatalf("1x1")
	}
}

func TestReduceTriangularInput(t *testing.T) {
	// A full upper triangle stored as a band with KU = n−1 (the q = 1
	// GE2BND case: the R factor itself).
	n := 10
	rng := rand.New(rand.NewSource(8))
	d := nla.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			d.Set(i, j, rng.NormFloat64())
		}
	}
	b := FromDense(d, n-1)
	want := jacobi.SingularValues(d)
	r := Reduce(b)
	got := jacobi.SingularValues(r.ToDense())
	if diff := jacobi.MaxRelDiff(got, want); diff > 1e-12 {
		t.Fatalf("triangular reduce off by %g", diff)
	}
}

// Property: Reduce preserves the Frobenius norm (orthogonal invariance)
// and always returns a bidiagonal matrix.
func TestReduceNormProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		ku := 1 + rng.Intn(min(n-1, 6))
		b := randomBand(seed, n, ku)
		r := Reduce(b)
		if r.KU > 1 {
			return false
		}
		return math.Abs(r.FrobeniusNorm()-b.FrobeniusNorm()) < 1e-10*math.Max(1, b.FrobeniusNorm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// denseChase is the bulge chase of reduce.go written against a dense
// n×n matrix with the scalar reflector routines of internal/nla: no band
// indexing, no blocking into Dot4/Axpy4/Gaxpy4 calls, no assembly. It
// returns the bidiagonal it leaves.
func denseChase(b *Matrix) (d, e []float64) {
	n, ku := b.N, b.KU
	a := b.ToDense()
	block := func(r0, rows, c0, cols int) *nla.Matrix {
		return &nla.Matrix{Rows: rows, Cols: cols, LD: a.LD, Data: a.Data[r0+c0*a.LD:]}
	}
	for i := 0; ku >= 2 && i < n-2; i++ {
		var tauL float64
		var vl []float64
		for c0, p0 := i+1, i; c0 < n; c0, p0 = c0+ku, c0 {
			k := min(ku, n-c0)
			if c0 > i+1 {
				nla.ApplyReflectorLeft(tauL, vl, block(p0, ku, c0, k))
			}
			u := make([]float64, k)
			for j := range u {
				u[j] = a.At(p0, c0+j)
				a.Set(p0, c0+j, 0)
			}
			beta, tauR := nla.Larfg(u[0], u[1:])
			a.Set(p0, c0, beta)
			nla.ApplyReflectorRight(tauR, u[1:], block(p0+1, c0+k-p0-1, c0, k))
			col := a.Data[c0+c0*a.LD : c0+c0*a.LD+k]
			col[0], tauL = nla.Larfg(col[0], col[1:])
			vl = append([]float64(nil), col[1:]...)
			clear(col[1:])
			if k > 1 {
				nla.ApplyReflectorLeft(tauL, vl, block(c0, k, c0+1, k-1))
			}
		}
	}
	d, e = make([]float64, n), make([]float64, max(n-1, 0))
	for i := range d {
		d[i] = a.At(i, i)
		if i < n-1 {
			e[i] = a.At(i, i+1)
		}
	}
	return d, e
}

// The blocked band kernels must compute what the dense scalar chase
// computes, entry by entry, to rounding — and leave nothing outside the
// bidiagonal. The scalar chase is the same code with and without the
// AVX2 primitives, so passing on the default and on the BIDIAG_NOASM=1
// CI leg bounds the distance between the two builds as well.
func TestReduceMatchesDenseChase(t *testing.T) {
	for _, cfg := range [][2]int{{5, 2}, {9, 8}, {40, 3}, {64, 7}, {100, 32}, {130, 64}, {97, 96}} {
		n, ku := cfg[0], cfg[1]
		b := randomBand(int64(n*ku), n, ku)
		wantD, wantE := denseChase(b)
		gotD, gotE := Reduce(b).Bidiagonal()
		tol := 64 * float64(n) * 0x1p-52 * b.FrobeniusNorm()
		for i := range wantD {
			if math.Abs(gotD[i]-wantD[i]) > tol {
				t.Fatalf("n=%d ku=%d: d[%d] = %v, dense chase %v", n, ku, i, gotD[i], wantD[i])
			}
		}
		for i := range wantE {
			if math.Abs(gotE[i]-wantE[i]) > tol {
				t.Fatalf("n=%d ku=%d: e[%d] = %v, dense chase %v", n, ku, i, gotE[i], wantE[i])
			}
		}
	}
}

// Scaling the band by a power of two scales every reflector's beta and
// leaves its tau and v alone, so the reduction commutes with it exactly:
// no intermediate squares an entry. 2^±498 ≈ 1e±150.
func TestReduceScalesExactly(t *testing.T) {
	b := randomBand(77, 90, 12)
	wantD, wantE := Reduce(b).Bidiagonal()
	for _, exp := range []int{498, -498} {
		s := b.Clone()
		for _, diag := range s.diags {
			for i := range diag {
				diag[i] = math.Ldexp(diag[i], exp)
			}
		}
		gotD, gotE := Reduce(s).Bidiagonal()
		for i := range wantD {
			if gotD[i] != math.Ldexp(wantD[i], exp) {
				t.Fatalf("2^%d: d[%d] = %v, want %v", exp, i, gotD[i], math.Ldexp(wantD[i], exp))
			}
		}
		for i := range wantE {
			if gotE[i] != math.Ldexp(wantE[i], exp) {
				t.Fatalf("2^%d: e[%d] = %v, want %v", exp, i, gotE[i], math.Ldexp(wantE[i], exp))
			}
		}
	}
}
