package bidiag

// One benchmark per table/figure of the paper, exercising the same code
// paths as cmd/bidiagbench at reduced sizes so `go test -bench=.` stays
// affordable. The full-size regenerators are:
//
//	go run ./cmd/bidiagbench -exp all            # paper sizes
//	go run ./cmd/bidiagbench -exp all -scale small
//
// Benchmarks report GFlop/s-style custom metrics where meaningful.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/baseline"
	"github.com/tiled-la/bidiag/internal/experiments"
)

var benchScale = experiments.Scale{Small: true}

func benchTable(b *testing.B, f func(experiments.Scale) *experiments.Table) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := f(benchScale)
		if len(t.Rows) == 0 {
			b.Fatalf("empty table")
		}
	}
}

// BenchmarkTable1Kernels regenerates Table I (kernel weights + measured
// kernel rates).
func BenchmarkTable1Kernels(b *testing.B) { benchTable(b, experiments.Table1) }

// BenchmarkFig2SquareGE2BND regenerates Figure 2 top-left: shared-memory
// GE2BND on square matrices across the four trees.
func BenchmarkFig2SquareGE2BND(b *testing.B) { benchTable(b, experiments.Fig2a) }

// BenchmarkFig2TallSkinny2k regenerates Figure 2 top-middle (N = 2000
// class): BIDIAG vs R-BIDIAG on tall-skinny matrices.
func BenchmarkFig2TallSkinny2k(b *testing.B) { benchTable(b, experiments.Fig2b) }

// BenchmarkFig2TallSkinny10k regenerates Figure 2 top-right (N = 10000
// class).
func BenchmarkFig2TallSkinny10k(b *testing.B) { benchTable(b, experiments.Fig2c) }

// BenchmarkFig2GE2VALSquare regenerates Figure 2 bottom-left: GE2VAL vs
// the competitor models, square case.
func BenchmarkFig2GE2VALSquare(b *testing.B) { benchTable(b, experiments.Fig2d) }

// BenchmarkFig2GE2VALTallSkinny2k regenerates Figure 2 bottom-middle.
func BenchmarkFig2GE2VALTallSkinny2k(b *testing.B) { benchTable(b, experiments.Fig2e) }

// BenchmarkFig2GE2VALTallSkinny10k regenerates Figure 2 bottom-right.
func BenchmarkFig2GE2VALTallSkinny10k(b *testing.B) { benchTable(b, experiments.Fig2f) }

// BenchmarkFig3StrongScalingSquare regenerates Figure 3 top-left:
// distributed strong scaling of BIDIAG on square matrices.
func BenchmarkFig3StrongScalingSquare(b *testing.B) { benchTable(b, experiments.Fig3a) }

// BenchmarkFig3StrongScalingTS2k regenerates Figure 3 top-middle:
// R-BIDIAG strong scaling, n = 2000 class.
func BenchmarkFig3StrongScalingTS2k(b *testing.B) { benchTable(b, experiments.Fig3b) }

// BenchmarkFig3StrongScalingTS10k regenerates Figure 3 top-right.
func BenchmarkFig3StrongScalingTS10k(b *testing.B) { benchTable(b, experiments.Fig3c) }

// BenchmarkFig3GE2VALSquare regenerates Figure 3 bottom-left with the
// BND2VAL upper bound.
func BenchmarkFig3GE2VALSquare(b *testing.B) { benchTable(b, experiments.Fig3d) }

// BenchmarkFig3GE2VALTS2k regenerates Figure 3 bottom-middle.
func BenchmarkFig3GE2VALTS2k(b *testing.B) { benchTable(b, experiments.Fig3e) }

// BenchmarkFig3GE2VALTS10k regenerates Figure 3 bottom-right.
func BenchmarkFig3GE2VALTS10k(b *testing.B) { benchTable(b, experiments.Fig3f) }

// BenchmarkFig4WeakScaling2k regenerates Figure 4 row 1 (GE2BND).
func BenchmarkFig4WeakScaling2k(b *testing.B) { benchTable(b, experiments.Fig4a) }

// BenchmarkFig4WeakScalingGE2VAL2k regenerates Figure 4 row 1 (GE2VAL +
// efficiency).
func BenchmarkFig4WeakScalingGE2VAL2k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, e := experiments.Fig4bc(benchScale)
		if len(p.Rows) == 0 || len(e.Rows) == 0 {
			b.Fatalf("empty tables")
		}
	}
}

// BenchmarkFig4WeakScaling10k regenerates Figure 4 row 2 (GE2BND).
func BenchmarkFig4WeakScaling10k(b *testing.B) { benchTable(b, experiments.Fig4d) }

// BenchmarkFig4WeakScalingGE2VAL10k regenerates Figure 4 row 2 (GE2VAL +
// efficiency).
func BenchmarkFig4WeakScalingGE2VAL10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, e := experiments.Fig4ef(benchScale)
		if len(p.Rows) == 0 || len(e.Rows) == 0 {
			b.Fatalf("empty tables")
		}
	}
}

// BenchmarkCriticalPaths regenerates the Section IV formula-vs-DAG table.
func BenchmarkCriticalPaths(b *testing.B) { benchTable(b, experiments.CriticalPaths) }

// BenchmarkCrossover regenerates the Section IV.C δs(q) study.
func BenchmarkCrossover(b *testing.B) { benchTable(b, experiments.Crossover) }

// BenchmarkAsymptotics regenerates the Eq.(1)/Theorem 1 convergence table.
func BenchmarkAsymptotics(b *testing.B) { benchTable(b, experiments.Asymptotics) }

// BenchmarkAccuracyProtocol regenerates the Section VI.A accuracy check
// (real execution, LATMS matrices).
func BenchmarkAccuracyProtocol(b *testing.B) { benchTable(b, experiments.Accuracy) }

// BenchmarkGE2BNDReal measures the real (not simulated) end-to-end GE2BND
// on this machine, the configuration a library user runs.
func BenchmarkGE2BNDReal(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const m, n = 768, 384
	a := NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"FlatTS", Options{NB: 64, Tree: FlatTS, Algorithm: Bidiag}},
		{"Greedy", Options{NB: 64, Tree: Greedy, Algorithm: Bidiag}},
		{"Auto", Options{NB: 64, Tree: Auto, Algorithm: Bidiag}},
		{"Auto-RBidiag", Options{NB: 64, Tree: Auto, Algorithm: RBidiag}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := GE2BND(a, &cfg.opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(baseline.PaperFlops(m, n)/1e9/b.Elapsed().Seconds()*float64(b.N), "GFlop/s")
		})
	}
}

// BenchmarkSingularValuesReal measures the full real pipeline
// (GE2BND + BND2BD + BD2VAL).
func BenchmarkSingularValuesReal(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const m, n = 512, 256
	a := NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	b.ReportAllocs()
	b.ResetTimer() // the LATMS-style input generation above is not the measured pipeline
	for i := 0; i < b.N; i++ {
		if _, err := SingularValues(a, &Options{NB: 32}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGE2BND is the acceptance benchmark of the workspace/GEMM
// refactor: single-threaded GE2BND of a 1024×1024 matrix at nb = 64. The
// GFlop/s metric is directly comparable across commits; allocs/op counts
// the graph build and tile copies only — the kernel steady state is
// allocation-free (see internal/kernels TestKernelsZeroAlloc).
func BenchmarkGE2BND(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const m, n = 1024, 1024
	a := NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	for _, workers := range []int{1, 2, 4} {
		opts := Options{NB: 64, Tree: Auto, Algorithm: Bidiag, Workers: workers}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := GE2BND(a, &opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(baseline.PaperFlops(m, n)/1e9/b.Elapsed().Seconds()*float64(b.N), "GFlop/s")
		})
	}
}

// BenchmarkSVDPipeline times end-to-end singular values of a 1024×1024
// matrix at nb = 64: the GE2BND graph, band extraction, the BND2BD graph
// and the bidiagonal QR iteration, rated against the modeled flops of
// both reduction stages.
func BenchmarkSVDPipeline(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	const m, n = 1024, 1024
	a := NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	for _, workers := range []int{1, 4} {
		opts := Options{NB: 64, Tree: Auto, Algorithm: Bidiag, Workers: workers}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SingularValues(a, &opts); err != nil {
					b.Fatal(err)
				}
			}
			flops := baseline.PaperFlops(m, n) + band.ModelFlops(n, 64)
			b.ReportMetric(flops/1e9/b.Elapsed().Seconds()*float64(b.N), "GFlop/s")
		})
	}
}
