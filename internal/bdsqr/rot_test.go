package bdsqr

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tiled-la/bidiag/internal/jacobi"
	"github.com/tiled-la/bidiag/internal/nla"
)

// vectors runs SVD on (d, e) and accumulates U and V from the identity,
// batch by batch, the way a caller does. batches counts the flushes.
func vectors(t *testing.T, d, e []float64) (u *nla.Matrix, s []float64, v *nla.Matrix, batches int) {
	t.Helper()
	n := len(d)
	pu, pv := nla.Identity(n), nla.Identity(n)
	res, err := SVD(d, e, func(b *Batch) error {
		batches++
		for i := range b.Left {
			b.Left[i].Apply(pu)
		}
		for i := range b.Right {
			b.Right[i].Apply(pv)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	u, v = nla.NewMatrix(n, n), nla.NewMatrix(n, n)
	for k, c := range res.Col {
		sign := 1.0
		if res.Neg[k] {
			sign = -1
		}
		for i := 0; i < n; i++ {
			u.Set(i, k, pu.At(i, c))
			v.Set(i, k, sign*pv.At(i, c))
		}
	}
	return u, res.S, v, batches
}

// checkVectors asserts the whole contract of SVD on one bidiagonal:
// S bitwise equal to SingularValues and within n·ε·σ₁ of the Jacobi
// oracle, U and V orthogonal, and U·diag(S)·Vᵀ the input.
func checkVectors(t *testing.T, name string, d, e []float64) (batches int) {
	t.Helper()
	n := len(d)
	u, s, v, batches := vectors(t, d, e)
	want, err := SingularValues(d, e)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := range want {
		if math.Float64bits(s[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: S[%d] = %v, SingularValues gives %v", name, i, s[i], want[i])
		}
	}
	if n == 0 {
		return batches
	}
	b := bidiagDense(d, e)
	oracle := jacobi.SingularValues(b)
	tol := 8 * float64(n) * eps
	scale := math.Max(oracle[0], math.SmallestNonzeroFloat64)
	for i := range oracle {
		if diff := math.Abs(s[i] - oracle[i]); diff > tol*scale {
			t.Errorf("%s: S[%d] = %g, Jacobi %g", name, i, s[i], oracle[i])
		}
	}
	if eu, ev := nla.OrthogonalityError(u), nla.OrthogonalityError(v); eu > tol || ev > tol {
		t.Errorf("%s: |UᵀU−I| = %g, |VᵀV−I| = %g, bound %g", name, eu, ev, tol)
	}
	us := u.Clone()
	for j := 0; j < n; j++ {
		nla.Scal(s[j], us.Data[j*us.LD:j*us.LD+n])
	}
	rec := nla.MulABT(us, v)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if diff := math.Abs(rec.At(i, j) - b.At(i, j)); diff > tol*scale {
				t.Fatalf("%s: (U·S·Vᵀ)(%d,%d) off by %g, bound %g", name, i, j, diff, tol*scale)
			}
		}
	}
	return batches
}

// TestSVDVectors drives every branch of the iteration with vectors on:
// shifted and zero-shift sweeps in both directions, the two zero-diagonal
// deflations (mid-block: left rotations against a fixed row; at the end
// of a block: right rotations against a fixed column), splits, negative
// diagonal entries, and inputs that need no iteration at all.
func TestSVDVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := func(n int) (d, e []float64) {
		d, e = make([]float64, n), make([]float64, max(n-1, 0))
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		for i := range e {
			e[i] = rng.NormFloat64()
		}
		return d, e
	}
	graded := func(n int, ratio float64) (d, e []float64) {
		d, e = random(n)
		for i := range d {
			d[i] *= math.Pow(ratio, float64(i))
			if i < n-1 {
				e[i] *= math.Pow(ratio, float64(i))
			}
		}
		return d, e
	}

	checkVectors(t, "empty", nil, nil)
	checkVectors(t, "1x1 negative", []float64{-5}, nil)
	checkVectors(t, "2x2", []float64{2, -0.5}, []float64{1.25})
	checkVectors(t, "diagonal", []float64{3, -1, 4, 1.5}, []float64{0, 0, 0})
	checkVectors(t, "all zero", make([]float64, 5), make([]float64, 4))

	d, e := random(40)
	checkVectors(t, "random", d, e)
	d, e = graded(30, 0.5) // large end first: forward sweeps
	checkVectors(t, "graded down", d, e)
	d, e = graded(30, 2) // large end last: backward sweeps
	checkVectors(t, "graded up", d, e)
	d, e = graded(24, 1e-3) // σ_min/σ_max below √ε: zero-shift sweeps
	checkVectors(t, "zero shift forward", d, e)
	d, e = graded(24, 1e3)
	checkVectors(t, "zero shift backward", d, e)

	d, e = random(20)
	d[7] = 0
	checkVectors(t, "zero diagonal mid-block", d, e)
	d, e = random(20)
	d[19] = 0
	checkVectors(t, "zero last diagonal", d, e)
	d, e = random(20)
	d[0], d[11], d[19] = 0, 0, 0
	e[4] = 0
	checkVectors(t, "zeros and a split", d, e)
	d, e = random(20)
	for i := range d {
		d[i] = -math.Abs(d[i])
	}
	checkVectors(t, "negative diagonal", d, e)

	// Long enough for the rotations to arrive in several batches.
	d, e = random(150)
	if batches := checkVectors(t, "batched", d, e); batches < 3 {
		t.Errorf("150×150 arrived in %d batches; the batch bound is not exercised", batches)
	}
}

// TestSVDApplyError checks that an error from the caller stops the
// iteration and is returned as is.
func TestSVDApplyError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, e := make([]float64, 10), make([]float64, 9)
	for i := range e {
		d[i], e[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	d[9] = 1
	want := errStop{}
	if _, err := SVD(d, e, func(*Batch) error { return want }); err != want {
		t.Fatalf("got %v, want the caller's error", err)
	}
	if _, err := SVD(d, e[:3], nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

type errStop struct{}

func (errStop) Error() string { return "stop" }
