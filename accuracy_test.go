package bidiag

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/tiled-la/bidiag/internal/baseline"
	"github.com/tiled-la/bidiag/internal/jacobi"
	"github.com/tiled-la/bidiag/internal/latms"
	"github.com/tiled-la/bidiag/internal/nla"
)

// TestSingularValueAccuracy is the numerical contract of the values
// pipeline (GE2BND, the Householder BND2BD chase, the bidiagonal QR
// iteration): on every latms spectrum mode, on graded and rank-deficient
// input and on input scaled towards the ends of the float64 range, the
// computed singular values match two independent oracles — one-sided
// Jacobi on the dense input and the one-stage GEBD2 bidiagonalization —
// to a small multiple of n·ε·σ₁, through the sequential reference and
// the task graph at the derived and at a one-block cut width alike.
// accuracyInput is one matrix of the accuracy suites: a is handed to the
// oracles as is and to the pipeline multiplied by scale, a power of two.
type accuracyInput struct {
	name  string
	a     *nla.Matrix
	scale float64
}

// accuracyInputs builds the suite on n×n matrices (2n×n for "tall"):
// every latms spectrum mode at condition 1e6, a geometric spectrum graded
// over 1e14, a rank-10 product of random factors, and a geometric
// spectrum scaled to both ends of the float64 range (2^±498 ≈ 1e±150: a
// power of two, so the oracle scales exactly).
func accuracyInputs(rng *rand.Rand, n int) []accuracyInput {
	var inputs []accuracyInput
	for _, mode := range []latms.Mode{latms.OneLarge, latms.OneSmall, latms.Geometric, latms.Arithmetic, latms.RandomLog} {
		a, _ := latms.Generate(rng, n, n, mode, 1e6)
		inputs = append(inputs, accuracyInput{fmt.Sprintf("mode%d", mode), a, 1})
	}
	graded, _ := latms.Generate(rng, n, n, latms.Geometric, 1e14)
	inputs = append(inputs, accuracyInput{"graded", graded, 1})
	tall, _ := latms.Generate(rng, 2*n, n, latms.Geometric, 1e6)
	inputs = append(inputs, accuracyInput{"tall", tall, 1})
	inputs = append(inputs, accuracyInput{"rank10", lowRank(rng, n, 10), 1})
	geo, _ := latms.Generate(rng, n, n, latms.Geometric, 1e6)
	return append(inputs, accuracyInput{"huge", geo, math.Ldexp(1, 498)}, accuracyInput{"tiny", geo, math.Ldexp(1, -498)})
}

// lowRank returns an n×n matrix of rank r: a product of random n×r and
// r×n factors.
func lowRank(rng *rand.Rand, n, r int) *nla.Matrix {
	a := nla.NewMatrix(n, n)
	left, right := nla.NewMatrix(n, r), nla.NewMatrix(r, n)
	for i := range left.Data {
		left.Data[i], right.Data[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	nla.Gemm(false, false, 1, left, right, 0, a)
	return a
}

// valueOracles returns the singular values of a (rows ≥ cols) by the two
// independent oracles: one-sided Jacobi on a itself, and Jacobi on the
// bidiagonal the one-stage GEBD2 reduction leaves.
func valueOracles(a *nla.Matrix) (jac, gebd2 []float64) {
	d, e := baseline.GEBD2(a.Clone())
	bd := nla.NewMatrix(len(d), len(d))
	for i := range d {
		bd.Set(i, i, d[i])
		if i < len(e) {
			bd.Set(i, i+1, e[i])
		}
	}
	return jacobi.SingularValues(a), jacobi.SingularValues(bd)
}

func TestSingularValueAccuracy(t *testing.T) {
	const (
		n, nb = 96, 16
		bound = 4 // × n·ε·σ₁, the benchmark oracle's limit; measured errors stay below 1
	)
	inputs := accuracyInputs(rand.New(rand.NewSource(12)), n)

	for _, in := range inputs {
		oracleJ, oracleB := valueOracles(in.a)

		scaled := in.a.Clone()
		nla.Scal(in.scale, scaled.Data)
		tol := bound * float64(n) * 0x1p-52 * oracleJ[0] * in.scale
		for _, opts := range []*Options{
			{NB: nb, Workers: 1, BND2BD: BND2BDSequential},
			{NB: nb, Workers: 4},
			{NB: nb, Workers: 4, BND2BDWindow: nb},
		} {
			got, err := SingularValues(&Dense{inner: scaled}, opts)
			if err != nil {
				t.Errorf("%s %+v: %v", in.name, *opts, err)
				continue
			}
			for i := range got {
				if dj, db := math.Abs(got[i]-oracleJ[i]*in.scale), math.Abs(got[i]-oracleB[i]*in.scale); dj > tol || db > tol {
					t.Errorf("%s %+v: σ[%d] = %g off by %.2g (jacobi) %.2g (GEBD2), bound %.2g",
						in.name, *opts, i, got[i], dj, db, tol)
					break
				}
			}
		}
	}
}

// TestSVDAccuracy is the numerical contract of the vector path (recorded
// GE2BND, the logged BND2BD chase, the bidiagonal QR iteration with
// vectors, the back-transform), stated once: on the inputs of
// TestSingularValueAccuracy plus a wide and a rank-1 matrix, through
// BIDIAG and R-BIDIAG and on one and three workers,
//
//	‖A − U·diag(S)·Vᵀ‖_F ≤ 16·n·ε·‖A‖_F,   max|UᵀU−I|, max|VᵀV−I| ≤ 16·n·ε,
//
// and S is within 4·n·ε·σ₁ of both oracles. U and V are products of
// orthogonal transformations, so the bounds hold whatever the rank.
func TestSVDAccuracy(t *testing.T) {
	const (
		n, nb       = 96, 16
		vectorBound = 16 // × n·ε, the benchmark oracle's limits
		valueBound  = 4
	)
	rng := rand.New(rand.NewSource(13))
	inputs := accuracyInputs(rng, n)
	wideT, _ := latms.Generate(rng, 2*n, n, latms.Geometric, 1e6)
	inputs = append(inputs, accuracyInput{"wide", wideT.Transpose(), 1}, accuracyInput{"rank1", lowRank(rng, n, 1), 1})

	ne := float64(n) * 0x1p-52
	for _, in := range inputs {
		tallA := in.a
		if tallA.Rows < tallA.Cols {
			tallA = tallA.Transpose()
		}
		oracleJ, oracleB := valueOracles(tallA)
		scaled := in.a.Clone()
		nla.Scal(in.scale, scaled.Data)
		normA := scaled.FrobeniusNorm()
		for _, alg := range []Algorithm{Bidiag, RBidiag} {
			for _, workers := range []int{1, 3} {
				label := fmt.Sprintf("%s %v workers=%d", in.name, alg, workers)
				r, err := SVD(&Dense{inner: scaled}, &Options{NB: nb, Algorithm: alg, Workers: workers})
				if err != nil {
					t.Errorf("%s: %v", label, err)
					continue
				}
				us := r.U.inner.Clone()
				for j, sj := range r.S {
					nla.Scal(sj, us.Data[j*us.LD:j*us.LD+us.Rows])
				}
				resid := nla.MulABT(us, r.V.inner)
				for j := 0; j < scaled.Cols; j++ {
					for i := 0; i < scaled.Rows; i++ {
						resid.Add(i, j, -scaled.At(i, j))
					}
				}
				if res := resid.FrobeniusNorm() / normA; !(res <= vectorBound*ne) {
					t.Errorf("%s: residual %.2f n·ε, bound %d", label, res/ne, vectorBound)
				}
				if eu, ev := orthoError(r.U), orthoError(r.V); !(eu <= vectorBound*ne && ev <= vectorBound*ne) {
					t.Errorf("%s: |UᵀU−I| %.2f, |VᵀV−I| %.2f n·ε, bound %d", label, eu/ne, ev/ne, vectorBound)
				}
				tol := valueBound * ne * oracleJ[0] * in.scale
				for i := range r.S {
					if dj, db := math.Abs(r.S[i]-oracleJ[i]*in.scale), math.Abs(r.S[i]-oracleB[i]*in.scale); dj > tol || db > tol {
						t.Errorf("%s: σ[%d] = %g off by %.2g (jacobi) %.2g (GEBD2), bound %.2g", label, i, r.S[i], dj, db, tol)
						break
					}
				}
			}
		}
	}
}
