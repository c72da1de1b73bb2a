package bdsqr

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/tiled-la/bidiag/internal/jacobi"
	"github.com/tiled-la/bidiag/internal/nla"
)

// qrValues is the values-only QR iteration, the solver SingularValues ran
// before dqds: the rotations are discarded and the converged diagonal is
// taken in absolute value and sorted. It is the tests' second solver.
func qrValues(d, e []float64) ([]float64, error) {
	if err := checkLengths(d, e); err != nil {
		return nil, err
	}
	dd := append([]float64(nil), d...)
	ee := append([]float64(nil), e...)
	if err := compute(dd, ee, nil); err != nil {
		return nil, err
	}
	for i := range dd {
		dd[i] = math.Abs(dd[i])
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(dd)))
	return dd, nil
}

// solvers are the two values solvers every case below runs: dqds, the
// production one, and the QR iteration.
var solvers = []struct {
	name   string
	values func(d, e []float64) ([]float64, error)
}{{"dqds", SingularValues}, {"qr", qrValues}}

func bidiagDense(d, e []float64) *nla.Matrix {
	n := len(d)
	m := nla.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, d[i])
		if i < n-1 {
			m.Set(i, i+1, e[i])
		}
	}
	return m
}

// againstJacobi runs both solvers on (d, e) and asserts each is within
// tol·σ₁ of one-sided Jacobi on the dense bidiagonal.
func againstJacobi(t *testing.T, name string, d, e []float64, tol float64) {
	t.Helper()
	want := jacobi.SingularValues(bidiagDense(d, e))
	for _, sol := range solvers {
		got, err := sol.values(d, e)
		if err != nil {
			t.Fatalf("%s %s: %v", name, sol.name, err)
		}
		if diff := jacobi.MaxRelDiff(got, want); diff > tol {
			t.Errorf("%s %s: off by %g: got %v want %v", name, sol.name, diff, got, want)
		}
	}
}

func TestDiagonalOnly(t *testing.T) {
	want := []float64{4, 3, 1.5, 1}
	for _, sol := range solvers {
		got, err := sol.values([]float64{3, -1, 4, 1.5}, []float64{0, 0, 0})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-14 {
				t.Fatalf("%s: got %v, want %v", sol.name, got, want)
			}
		}
	}
}

func TestTinyMatrices(t *testing.T) {
	for _, sol := range solvers {
		if sv, err := sol.values([]float64{-5}, nil); err != nil || sv[0] != 5 {
			t.Fatalf("%s: 1x1 wrong: %v %v", sol.name, sv, err)
		}
		if sv, err := sol.values(nil, nil); err != nil || len(sv) != 0 {
			t.Fatalf("%s: empty wrong", sol.name)
		}
		// 2x2 against the dlas2 closed form.
		d := []float64{2, -0.5}
		e := []float64{1.25}
		got, err := sol.values(d, e)
		if err != nil {
			t.Fatal(err)
		}
		mn, mx := las2(d[0], e[0], d[1])
		if math.Abs(got[0]-mx) > 1e-14*mx || math.Abs(got[1]-mn) > 1e-14*mx {
			t.Fatalf("%s: 2x2 mismatch: %v vs (%v, %v)", sol.name, got, mx, mn)
		}
	}
}

func TestLengthValidation(t *testing.T) {
	for _, sol := range solvers {
		if _, err := sol.values([]float64{1, 2}, []float64{1, 2, 3}); err == nil {
			t.Fatalf("%s: expected length error", sol.name)
		}
	}
}

func TestAgainstJacobiRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 5, 10, 25, 60, 150} {
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		for i := range e {
			e[i] = rng.NormFloat64()
		}
		againstJacobi(t, fmt.Sprintf("n=%d", n), d, e, 1e-13)
	}
}

func TestGradedMatrix(t *testing.T) {
	// Strongly graded bidiagonal: relative accuracy matters here.
	n := 20
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = math.Pow(10, -float64(i)/2)
	}
	for i := range e {
		e[i] = d[i] * 0.5
	}
	againstJacobi(t, "graded", d, e, 1e-13)
}

// TestGradedRelativeAccuracy pins relative accuracy per singular value on
// d_i = 2⁻ⁱ, e_i = d_i/2, whose σ span 2⁻ⁿ…1: every σ_k is within
// c·n·ε·σ_k of Jacobi on the dense bidiagonal, c = 2 (dqds measures 0.1
// at n = 200 and 0.04 at n = 500). The QR iteration's absolute deflation
// test puts its smallest σ 20% off at n = 200.
func TestGradedRelativeAccuracy(t *testing.T) {
	const c = 2
	for _, n := range []int{200, 500} {
		d, e := make([]float64, n), make([]float64, n-1)
		for i := range d {
			d[i] = math.Ldexp(1, -i)
			if i < n-1 {
				e[i] = d[i] / 2
			}
		}
		got, err := SingularValues(d, e)
		if err != nil {
			t.Fatal(err)
		}
		want := jacobi.SingularValues(bidiagDense(d, e))
		for k := range want {
			if diff := math.Abs(got[k] - want[k]); !(diff <= c*float64(n)*eps*want[k]) {
				t.Errorf("n=%d: σ[%d] = %g, Jacobi %g: %.3g n·ε relative, bound %d",
					n, k, got[k], want[k], diff/want[k]/(float64(n)*eps), c)
			}
		}
	}
}

func TestZeroDiagonalEntry(t *testing.T) {
	// An exact zero on the diagonal forces the splitting path.
	againstJacobi(t, "zero diagonal", []float64{1, 0, 2, 3}, []float64{0.5, 0.7, 0.9}, 1e-13)
}

func TestZeroLastDiagonal(t *testing.T) {
	d := []float64{1, 2, 0}
	e := []float64{0.5, 0.7}
	againstJacobi(t, "zero last diagonal", d, e, 1e-13)
	for _, sol := range solvers {
		got, _ := sol.values(d, e)
		if got[2] > 1e-14 {
			t.Fatalf("%s: matrix is singular; smallest σ should be 0, got %v", sol.name, got[2])
		}
	}
}

func TestAllZero(t *testing.T) {
	for _, sol := range solvers {
		got, err := sol.values(make([]float64, 5), make([]float64, 4))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range got {
			if v != 0 {
				t.Fatalf("%s: zero matrix should have zero spectrum", sol.name)
			}
		}
	}
}

func TestClusteredValues(t *testing.T) {
	// Nearly equal singular values.
	n := 12
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 1 + 1e-10*float64(i)
	}
	for i := range e {
		e[i] = 1e-12
	}
	for _, sol := range solvers {
		got, err := sol.values(d, e)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range got {
			if math.Abs(v-1) > 2e-9 {
				t.Fatalf("%s: clustered spectrum distorted: %v", sol.name, got)
			}
		}
	}
}

func TestInputsNotModified(t *testing.T) {
	d := []float64{1, 2, 3}
	e := []float64{0.1, 0.2}
	d0 := append([]float64(nil), d...)
	e0 := append([]float64(nil), e...)
	for _, sol := range solvers {
		if _, err := sol.values(d, e); err != nil {
			t.Fatal(err)
		}
		for i := range d {
			if d[i] != d0[i] {
				t.Fatalf("%s: d modified", sol.name)
			}
		}
		for i := range e {
			if e[i] != e0[i] {
				t.Fatalf("%s: e modified", sol.name)
			}
		}
	}
}

func TestFrobeniusInvariantProperty(t *testing.T) {
	for _, sol := range solvers {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(40)
			d := make([]float64, n)
			e := make([]float64, n-1)
			var ssq float64
			for i := range d {
				d[i] = rng.NormFloat64()
				ssq += d[i] * d[i]
			}
			for i := range e {
				e[i] = rng.NormFloat64()
				ssq += e[i] * e[i]
			}
			sv, err := sol.values(d, e)
			if err != nil {
				return false
			}
			var got float64
			for _, v := range sv {
				got += v * v
			}
			return math.Abs(got-ssq) <= 1e-10*math.Max(1, ssq)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatal(sol.name, err)
		}
	}
}

func TestLas2KnownValues(t *testing.T) {
	mn, mx := las2(3, 0, 4)
	if mn != 3 || mx != 4 {
		t.Fatalf("diagonal 2x2 wrong: %v %v", mn, mx)
	}
	mn, mx = las2(0, 5, 0)
	if mn != 0 || mx != 5 {
		t.Fatalf("pure g wrong: %v %v", mn, mx)
	}
}

func TestGradedUpward(t *testing.T) {
	// Graded in the increasing direction: exercises the QR iteration's
	// backward sweeps (|d[lo]| < |d[m]| selects them, as in LAPACK) and
	// the dqds flip of the qd-array.
	n := 25
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = math.Pow(10, float64(i)/3-3)
	}
	for i := range e {
		e[i] = d[i+1] * 0.4
	}
	againstJacobi(t, "upward-graded", d, e, 1e-13)
}

func TestAlternatingSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 40
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = rng.NormFloat64()
		if i%2 == 0 {
			d[i] = -d[i]
		}
	}
	for i := range e {
		e[i] = -rng.Float64()
	}
	againstJacobi(t, "signed bidiagonal", d, e, 1e-13)
}

// FuzzBidiagonalValues drives dqds with bidiagonals of up to 64 entries
// whose d_i and e_i have random signs, binary exponents in ±300 and exact
// zeros. The values must be finite, non-negative and descending, must
// converge, and must agree with the QR iteration to (8n + 100)·ε·σ₁: 8n
// for the rounding of either solver, 100 for the QR iteration's absolute
// deflation threshold of 100·ε·max|·|, which alone puts its values up to
// 100·ε·σ₁ off. The sum of their squares is ‖B‖²_F to 1e-12 relative
// (compared as norms after scaling, which cannot overflow).
func FuzzBidiagonalValues(f *testing.F) {
	f.Add([]byte{3, 0x10, 0x20, 0x30, 0x40, 0x50})
	f.Add([]byte{64, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{20, 0xff, 0x00, 0x80, 0x7f, 0x01, 0xfe, 0x00, 0x00, 0x55, 0xaa})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		rng := rand.New(rand.NewSource(int64(len(data))))
		next := func(i int) float64 {
			var b byte
			if i < len(data) {
				b = data[i]
			} else {
				b = byte(rng.Intn(256))
			}
			if b%8 == 0 {
				return 0
			}
			x := math.Ldexp(1+rng.Float64(), int(b)*601/256-300)
			if b&1 == 1 {
				x = -x
			}
			return x
		}
		d, e := make([]float64, n), make([]float64, n-1)
		for i := range d {
			d[i] = next(1 + 2*i)
			if i < n-1 {
				e[i] = next(2 + 2*i)
			}
		}
		got, err := SingularValues(d, e)
		if err != nil {
			t.Fatalf("n=%d: %v\nd=%v\ne=%v", n, err, d, e)
		}
		for k, v := range got {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || k > 0 && v > got[k-1] {
				t.Fatalf("n=%d: σ[%d] = %g in %v", n, k, v, got)
			}
		}
		want, err := qrValues(d, e)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		tol := (8*float64(n) + 100) * eps * want[0]
		for k := range got {
			if diff := math.Abs(got[k] - want[k]); diff > tol {
				t.Fatalf("n=%d: σ[%d] = %g, QR %g: off by %.3g σ₁ε", n, k, got[k], want[k], diff/want[0]/eps)
			}
		}
		// Frobenius norms of B and of σ, in units of the largest entry.
		entries := append(append([]float64(nil), d...), e...)
		scale := 0.0
		for _, v := range entries {
			scale = max(scale, math.Abs(v))
		}
		if scale == 0 {
			return
		}
		var fb, fs float64
		for _, v := range entries {
			fb += (v / scale) * (v / scale)
		}
		for _, v := range got {
			fs += (v / scale) * (v / scale)
		}
		if math.Abs(math.Sqrt(fs)-math.Sqrt(fb)) > 1e-12*math.Sqrt(fb) {
			t.Fatalf("n=%d: ‖σ‖₂ = %.17g·s, ‖B‖_F = %.17g·s", n, math.Sqrt(fs), math.Sqrt(fb))
		}
	})
}
