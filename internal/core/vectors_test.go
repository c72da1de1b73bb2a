package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/nla"
)

func randomBand(seed int64, n, ku int) *band.Matrix {
	rng := rand.New(rand.NewSource(seed))
	b := band.New(n, ku)
	for i := 0; i < n; i++ {
		for j := i; j <= i+b.KU && j < n; j++ {
			b.Set(i, j, 2*rng.Float64()-1)
		}
	}
	return b
}

// bandVectors runs stages 2 and 3 of the vector path on b.
func bandVectors(t testing.TB, b *band.Matrix, workers int) (u *nla.Matrix, s []float64, v *nla.Matrix) {
	t.Helper()
	bd, log := band.ReduceLogged(b)
	u, v, err := FormQP(log, workers)
	if err != nil {
		t.Fatal(err)
	}
	d, e := bd.Bidiagonal()
	s, err = BidiagonalVectors(d, e, u, v, workers)
	if err != nil {
		t.Fatal(err)
	}
	return u, s, v
}

// TestBandVectors checks B = U·diag(S)·Vᵀ with orthogonal U and V on
// shapes that cut the row panels raggedly, and that the vectors do not
// depend on the worker count by a single bit.
func TestBandVectors(t *testing.T) {
	for _, c := range []struct{ n, ku int }{{1, 0}, {2, 1}, {3, 2}, {40, 8}, {97, 16}, {150, 64}, {301, 32}} {
		label := fmt.Sprintf("n=%d ku=%d", c.n, c.ku)
		b := randomBand(int64(c.n), c.n, c.ku)
		u, s, v := bandVectors(t, b, 1)
		tol := 8 * float64(c.n) * 0x1p-52
		if eu, ev := nla.OrthogonalityError(u), nla.OrthogonalityError(v); eu > tol || ev > tol {
			t.Errorf("%s: |UᵀU−I| = %g, |VᵀV−I| = %g, bound %g", label, eu, ev, tol)
		}
		us := u.Clone()
		for j := range s {
			nla.Scal(s[j], us.Data[j*us.LD:j*us.LD+c.n])
			if j > 0 && s[j] > s[j-1] {
				t.Fatalf("%s: S not descending at %d", label, j)
			}
		}
		rec, dense := nla.MulABT(us, v), b.ToDense()
		for i := range rec.Data {
			if diff := math.Abs(rec.Data[i] - dense.Data[i]); diff > tol*math.Max(s[0], 1) {
				t.Fatalf("%s: U·S·Vᵀ off by %g at %d", label, diff, i)
			}
		}
		for _, workers := range []int{2, 4} {
			uw, sw, vw := bandVectors(t, b, workers)
			for i := range s {
				if s[i] != sw[i] {
					t.Fatalf("%s: S depends on the worker count", label)
				}
			}
			for i := range u.Data {
				if u.Data[i] != uw.Data[i] || v.Data[i] != vw.Data[i] {
					t.Fatalf("%s: vectors depend on the worker count (%d workers)", label, workers)
				}
			}
		}
	}
}

func TestPermuteCols(t *testing.T) {
	x := nla.NewMatrix(2, 5)
	for j := 0; j < 5; j++ {
		x.Set(0, j, float64(j))
		x.Set(1, j, float64(10+j))
	}
	permuteCols(x, []int{3, 0, 2, 4, 1}, []bool{false, true, false, false, true})
	want := []float64{3, 13, -0.0, -10, 2, 12, 4, 14, -1, -11}
	for i, w := range want {
		if x.Data[i] != w {
			t.Fatalf("got %v, want %v", x.Data, want)
		}
	}
}

func BenchmarkFormQP(b *testing.B) {
	for _, n := range []int{256, 512} {
		_, log := band.ReduceLogged(randomBand(1, n, 64))
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/w=%d", n, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := FormQP(log, workers); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(2*log.MulFlops(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

func BenchmarkBidiagonalVectors(b *testing.B) {
	for _, n := range []int{256, 512} {
		bd, _ := band.ReduceLogged(randomBand(1, n, 64))
		d, e := bd.Bidiagonal()
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/w=%d", n, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					u, v := paddedIdentity(n), paddedIdentity(n)
					b.StartTimer()
					if _, err := BidiagonalVectors(d, e, u, v, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestSVDWorkers pins the cut-over of the vector path: the benchmark's
// 256² call and the service's small jobs stay on the caller, 384² and a
// tall-skinny input keep the pool, either orientation counts the same.
func TestSVDWorkers(t *testing.T) {
	for _, c := range []struct{ m, n, workers, want int }{
		{128, 128, 2, 1},
		{256, 256, 8, 1},
		{1024, 128, 4, 1},
		{384, 384, 2, 2},
		{512, 512, 4, 4},
		{8192, 256, 2, 2},
		{256, 8192, 2, 2},
		{4096, 4096, 1, 1},
	} {
		if got := SVDWorkers(c.m, c.n, c.workers); got != c.want {
			t.Errorf("SVDWorkers(%d, %d, %d) = %d, want %d", c.m, c.n, c.workers, got, c.want)
		}
	}
}
