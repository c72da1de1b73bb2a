package band

import (
	"fmt"
	"math"
	"testing"

	"github.com/tiled-la/bidiag/internal/nla"
)

// TestReduceLogged pins the two halves of the log's contract on ragged
// shapes (n mod ku ≠ 0, n ≤ ku, n ∈ {1, 2, 3}): logging does not change
// a bit of the bidiagonal, and the logged reflectors are the ones the
// chase applied — Q₂ and P₂ are orthogonal and Q₂ᵀ·B·P₂ is the
// bidiagonal.
func TestReduceLogged(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 9, 33, 65, 100, 130} {
		for _, ku := range []int{1, 2, 3, 7, 32, 64, n - 1, n + 5} {
			if ku < 0 {
				continue
			}
			label := fmt.Sprintf("n=%d ku=%d", n, ku)
			b := randomBand(int64(31*n+ku), n, ku)
			bd, log := ReduceLogged(b)
			diffBidiagonal(t, label, Reduce(b), bd)

			if log.N() != n {
				t.Fatalf("%s: log order %d", label, log.N())
			}
			q, p := nla.Identity(n), nla.Identity(n)
			scratch := make([]float64, n)
			log.MulQ(q, scratch)
			log.MulP(p, scratch)
			tol := 8 * float64(n) * 0x1p-52
			if e := nla.OrthogonalityError(q); e > tol {
				t.Errorf("%s: |Q₂ᵀQ₂−I| = %g", label, e)
			}
			if e := nla.OrthogonalityError(p); e > tol {
				t.Errorf("%s: |P₂ᵀP₂−I| = %g", label, e)
			}
			got := nla.MulAB(nla.MulATB(q, b.ToDense()), p)
			want := bd.ToDense()
			scale := math.Max(b.FrobeniusNorm(), 1)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					if d := math.Abs(got.At(i, j) - want.At(i, j)); d > tol*scale {
						t.Fatalf("%s: (Q₂ᵀ·B·P₂)(%d,%d) off by %g", label, i, j, d)
					}
				}
			}
		}
	}
}

// TestLogRowPanelsIndependent: the rows of the operand are independent,
// so MulP on a row panel gives bitwise the rows MulP gives on the whole
// operand, however the panels are cut — which is what lets the panel
// tasks of internal/core run in any order on any number of workers.
func TestLogRowPanelsIndependent(t *testing.T) {
	const n, ku = 70, 16
	_, log := ReduceLogged(randomBand(5, n, ku))
	whole, cut := nla.Identity(n), nla.Identity(n)
	scratch := make([]float64, n)
	log.MulP(whole, scratch)
	for r0 := 0; r0 < n; r0 += 25 {
		log.MulP(cut.View(r0, 0, min(25, n-r0), n), scratch)
	}
	for i := range whole.Data {
		if whole.Data[i] != cut.Data[i] {
			t.Fatalf("element %d depends on the panel cut", i)
		}
	}
}
