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
// to a small multiple of n·ε·σ₁, through the sequential reference, the
// task graph and the fused graph alike.
func TestSingularValueAccuracy(t *testing.T) {
	const (
		n, nb = 96, 16
		bound = 4 // × n·ε·σ₁, the benchmark oracle's limit; measured errors stay below 1
	)
	rng := rand.New(rand.NewSource(12))
	type input struct {
		name  string
		a     *nla.Matrix
		scale float64 // power of two applied to a before the run
	}
	var inputs []input
	for _, mode := range []latms.Mode{latms.OneLarge, latms.OneSmall, latms.Geometric, latms.Arithmetic, latms.RandomLog} {
		a, _ := latms.Generate(rng, n, n, mode, 1e6)
		inputs = append(inputs, input{fmt.Sprintf("mode%d", mode), a, 1})
	}
	graded, _ := latms.Generate(rng, n, n, latms.Geometric, 1e14)
	inputs = append(inputs, input{"graded", graded, 1})
	tall, _ := latms.Generate(rng, 2*n, n, latms.Geometric, 1e6)
	inputs = append(inputs, input{"tall", tall, 1})
	// Rank 10: a product of random 96×10 and 10×96 factors.
	lowRank := nla.NewMatrix(n, n)
	l, r := nla.NewMatrix(n, 10), nla.NewMatrix(10, n)
	for i := range l.Data {
		l.Data[i], r.Data[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	nla.Gemm(false, false, 1, l, r, 0, lowRank)
	inputs = append(inputs, input{"rank10", lowRank, 1})
	// 2^±498 ≈ 1e±150: a power of two, so the oracle scales exactly.
	geo, _ := latms.Generate(rng, n, n, latms.Geometric, 1e6)
	inputs = append(inputs, input{"huge", geo, math.Ldexp(1, 498)}, input{"tiny", geo, math.Ldexp(1, -498)})

	for _, in := range inputs {
		oracleJ := jacobi.SingularValues(in.a)
		d, e := baseline.GEBD2(in.a.Clone())
		bd := nla.NewMatrix(len(d), len(d))
		for i := range d {
			bd.Set(i, i, d[i])
			if i < len(e) {
				bd.Set(i, i+1, e[i])
			}
		}
		oracleB := jacobi.SingularValues(bd)

		scaled := in.a.Clone()
		nla.Scal(in.scale, scaled.Data)
		tol := bound * float64(n) * 0x1p-52 * oracleJ[0] * in.scale
		for _, opts := range []*Options{
			{NB: nb, Workers: 1, BND2BD: BND2BDSequential},
			{NB: nb, Workers: 4},
			{NB: nb, Workers: 4, Fused: true, BND2BDWindow: nb},
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
