package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/trees"
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
	u, v, err := FormQP(log, poolRun(workers))
	if err != nil {
		t.Fatal(err)
	}
	d, e := bd.Bidiagonal()
	s, err = BidiagonalVectors(d, e, u, v, poolRun(workers))
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

// TestPanelCut checks the row panels of the back half's graphs: every row
// of every matrix in exactly one task, at least minPanels panels where
// minPanelRows allows, tasks alternating between the matrices, and FormQP
// bitwise equal to the log applied to each whole matrix in one call.
func TestPanelCut(t *testing.T) {
	for _, c := range []struct{ m, n int }{{1, 1}, {40, 40}, {97, 97}, {150, 150}, {256, 256}, {301, 301}, {130, 700}, {1100, 1100}} {
		label := fmt.Sprintf("%dx%d", c.m, c.n)
		h := panelRows(c.m, c.n)
		if want := min(minPanels, (c.m+minPanelRows-1)/minPanelRows); (c.m+h-1)/h < want && h > 8 {
			t.Errorf("%s: %d-row panels, fewer than %d", label, h, want)
		}
		xs := []*nla.Matrix{nla.NewMatrix(c.m, c.n), nla.NewMatrix(c.m/2+1, c.n)}
		g := sched.NewGraph()
		forPanels(g, 0, func(int) float64 { return 0 }, xs, func(which int, panel *nla.Matrix, _ *nla.Workspace) {
			for j := 0; j < panel.Cols; j++ {
				for i := 0; i < panel.Rows; i++ {
					panel.Data[i+j*panel.LD]++
				}
			}
		})
		if len(g.Tasks) > 1 && g.Tasks[0].J == g.Tasks[1].J {
			t.Errorf("%s: the first two tasks are on the same matrix", label)
		}
		if err := g.RunSequential(); err != nil {
			t.Fatal(err)
		}
		for which, x := range xs {
			for j := 0; j < x.Cols; j++ {
				for i := 0; i < x.Rows; i++ {
					if x.At(i, j) != 1 {
						t.Fatalf("%s: matrix %d row %d covered %g times", label, which, i, x.At(i, j))
					}
				}
			}
		}
	}
	for _, n := range []int{97, 150, 256, 301} {
		_, log := band.ReduceLogged(randomBand(int64(n), n, 32))
		q, p, err := FormQP(log, poolRun(2))
		if err != nil {
			t.Fatal(err)
		}
		wq, wp, tmp := paddedIdentity(n), paddedIdentity(n), make([]float64, n)
		log.MulQ(wq, tmp)
		log.MulP(wp, tmp)
		for i := range wq.Data {
			if q.Data[i] != wq.Data[i] || p.Data[i] != wp.Data[i] {
				t.Fatalf("n=%d: FormQP in %d-row panels differs from one whole-matrix pass", n, panelRows(n, n))
			}
		}
	}
}

// TestBackHalfTasksBounds runs the back half of recorded reductions,
// every tree and both algorithms on shapes with ragged tiles, and counts
// the tasks of its graphs: BackHalfTasks must not fall short, or a
// traced service job would drop events.
func TestBackHalfTasksBounds(t *testing.T) {
	for _, c := range []struct {
		m, n, nb int
		rbidiag  bool
	}{{64, 64, 16, false}, {97, 33, 8, false}, {200, 48, 16, true}, {130, 130, 8, true}, {20, 12, 64, false}} {
		for _, tr := range []trees.Kind{trees.FlatTS, trees.FlatTT, trees.Greedy, trees.Auto} {
			d, rec, g := randomTiled(3, c.m, c.n, c.nb), &Recorder{}, sched.NewGraph()
			cfg := Config{Tree: tr, Cores: 2, Recorder: rec}
			if c.rbidiag {
				_, d = BuildRBidiag(g, ShapeOf(c.m, c.n, c.nb), d, cfg)
			} else {
				BuildBidiag(g, ShapeOf(c.m, c.n, c.nb), d, cfg)
			}
			if err := g.RunSequential(); err != nil {
				t.Fatal(err)
			}
			tasks := 0
			count := func(g *sched.Graph) error {
				tasks += len(g.Tasks)
				return g.RunSequential()
			}
			bd, log := band.ReduceLogged(d.ExtractBand(c.nb))
			u, v, err := FormQP(log, count)
			if err != nil {
				t.Fatal(err)
			}
			dd, e := bd.Bidiagonal()
			if _, err := BidiagonalVectors(dd, e, u, v, count); err != nil {
				t.Fatal(err)
			}
			if _, _, err := rec.ApplyBoth(u, v, count, true); err != nil {
				t.Fatal(err)
			}
			if bound := BackHalfTasks(c.m, c.n, c.nb); tasks > bound {
				t.Errorf("%dx%d nb %d %v rbidiag=%v: %d back-half tasks, bound %d", c.m, c.n, c.nb, tr, c.rbidiag, tasks, bound)
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
					if _, _, err := FormQP(log, poolRun(workers)); err != nil {
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
					if _, err := BidiagonalVectors(d, e, u, v, poolRun(workers)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
