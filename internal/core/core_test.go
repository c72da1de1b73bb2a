package core

import (
	"math/rand"
	"testing"

	"github.com/tiled-la/bidiag/internal/jacobi"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
	"github.com/tiled-la/bidiag/internal/trees"
)

// runBidiag builds and executes BIDIAG on a copy of d, returning the tiled
// result. treeCores parameterizes the AUTO tree; workers only selects the
// execution engine.
func runBidiag(t *testing.T, d *tile.Matrix, tr trees.Kind, treeCores, workers int) *tile.Matrix {
	t.Helper()
	work := d.Clone()
	g := sched.NewGraph()
	BuildBidiag(g, ShapeOf(work.M, work.N, work.NB), work, Config{Tree: tr, Cores: treeCores})
	if err := g.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	if workers <= 1 {
		g.RunSequential()
	} else {
		g.RunParallel(workers)
	}
	return work
}

func runRBidiag(t *testing.T, d *tile.Matrix, tr trees.Kind, treeCores, workers int) *tile.Matrix {
	t.Helper()
	work := d.Clone()
	g := sched.NewGraph()
	_, r := BuildRBidiag(g, ShapeOf(work.M, work.N, work.NB), work, Config{Tree: tr, Cores: treeCores})
	if err := g.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	if workers <= 1 {
		g.RunSequential()
	} else {
		g.RunParallel(workers)
	}
	return r
}

func randomTiled(seed int64, m, n, nb int) *tile.Matrix {
	rng := rand.New(rand.NewSource(seed))
	d := tile.New(m, n, nb)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			d.Set(i, j, 2*rng.Float64()-1)
		}
	}
	return d
}

// bandSV extracts the logical band (the storage also holds reflector
// vectors outside it, as in PLASMA) and returns its singular values. If the
// reduction left genuine weight outside the band, the returned spectrum
// would not match the input's.
func bandSV(out *tile.Matrix) []float64 {
	return jacobi.SingularValues(out.ExtractBand(out.NB).ToDense())
}

func TestBidiagBandCarriesSingularValues(t *testing.T) {
	shapes := [][3]int{
		{24, 24, 4}, {24, 12, 4}, {25, 13, 4}, {30, 9, 5}, {8, 8, 8}, {17, 5, 4}, {9, 9, 3},
	}
	for _, sh := range shapes {
		d := randomTiled(1, sh[0], sh[1], sh[2])
		want := jacobi.SingularValues(d.ToDense())
		for _, tr := range []trees.Kind{trees.FlatTS, trees.FlatTT, trees.Greedy, trees.Auto} {
			out := runBidiag(t, d, tr, 4, 1)
			got := bandSV(out)
			if diff := jacobi.MaxRelDiff(got, want); diff > 1e-12 {
				t.Errorf("%v %v: band singular values off by %g", sh, tr, diff)
			}
		}
	}
}

func TestRBidiagBandCarriesSingularValues(t *testing.T) {
	shapes := [][3]int{{24, 24, 4}, {40, 12, 4}, {33, 13, 4}, {30, 6, 3}, {16, 4, 4}, {21, 7, 7}}
	for _, sh := range shapes {
		d := randomTiled(3, sh[0], sh[1], sh[2])
		want := jacobi.SingularValues(d.ToDense())
		for _, tr := range []trees.Kind{trees.FlatTS, trees.FlatTT, trees.Greedy, trees.Auto} {
			r := runRBidiag(t, d, tr, 4, 1)
			if r.M != sh[1] || r.N != sh[1] {
				t.Fatalf("R-BIDIAG result should be n×n")
			}
			got := bandSV(r)
			if diff := jacobi.MaxRelDiff(got, want); diff > 1e-12 {
				t.Errorf("%v %v: band singular values off by %g", sh, tr, diff)
			}
		}
	}
}

func TestParallelMatchesSequentialBitwise(t *testing.T) {
	// Dependencies totally order the kernels touching each region, so a
	// parallel run must produce bitwise-identical tiles.
	d := randomTiled(5, 30, 18, 4)
	for _, tr := range []trees.Kind{trees.FlatTS, trees.FlatTT, trees.Greedy, trees.Auto} {
		seq := runBidiag(t, d, tr, 4, 1)
		for _, workers := range []int{2, 4, 8} {
			par := runBidiag(t, d, tr, 4, workers)
			if !tile.Equal(seq, par, 0) {
				t.Fatalf("%v with %d workers: parallel result differs from sequential", tr, workers)
			}
		}
	}
}

func TestParallelRBidiagMatchesSequential(t *testing.T) {
	d := randomTiled(6, 36, 12, 4)
	for _, tr := range []trees.Kind{trees.FlatTS, trees.Greedy} {
		seq := runRBidiag(t, d, tr, 4, 1)
		par := runRBidiag(t, d, tr, 4, 6)
		if !tile.Equal(seq, par, 0) {
			t.Fatalf("%v: parallel R-BIDIAG differs from sequential", tr)
		}
	}
}

func TestBuildQRFactors(t *testing.T) {
	d := randomTiled(7, 28, 12, 4)
	want := jacobi.SingularValues(d.ToDense())
	work := d.Clone()
	g := sched.NewGraph()
	BuildQR(g, ShapeOf(28, 12, 4), work, Config{Tree: trees.Greedy})
	g.RunSequential()
	// R (upper triangle of the top 12×12) must carry the singular values.
	dense := work.ToDense()
	r := dense.View(0, 0, 12, 12).Clone()
	for j := 0; j < 12; j++ {
		for i := j + 1; i < 12; i++ {
			r.Set(i, j, 0)
		}
	}
	got := jacobi.SingularValues(r)
	if diff := jacobi.MaxRelDiff(got, want); diff > 1e-12 {
		t.Fatalf("QR did not preserve singular values: %g", diff)
	}
}

func TestSimulationOnlyBuildHasNoData(t *testing.T) {
	g := sched.NewGraph()
	BuildBidiag(g, ShapeOf(1600, 800, 100), nil, Config{Tree: trees.Greedy})
	s := g.Summary()
	if s.Tasks == 0 {
		t.Fatalf("no tasks built")
	}
	for _, task := range g.Tasks {
		if task.Run != nil {
			t.Fatalf("simulation-only build must not create closures")
		}
	}
	// And it must still be analyzable.
	if cp := g.CriticalPath(sched.WeightTime); cp <= 0 {
		t.Fatalf("critical path not computable")
	}
}

func TestBidiagRejectsWide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for m < n")
		}
	}()
	g := sched.NewGraph()
	BuildBidiag(g, ShapeOf(8, 16, 4), nil, Config{Tree: trees.Greedy})
}

func TestSingleTileColumn(t *testing.T) {
	// q = 1: BIDIAG reduces to a single QR step.
	d := randomTiled(8, 20, 4, 4)
	want := jacobi.SingularValues(d.ToDense())
	out := runBidiag(t, d, trees.Greedy, 4, 1)
	got := bandSV(out)
	if diff := jacobi.MaxRelDiff(got, want); diff > 1e-12 {
		t.Fatalf("q=1 bidiag wrong: %g", diff)
	}
	r := runRBidiag(t, d, trees.FlatTS, 4, 1)
	got2 := bandSV(r)
	if diff := jacobi.MaxRelDiff(got2, want); diff > 1e-12 {
		t.Fatalf("q=1 r-bidiag wrong: %g", diff)
	}
}

func TestSingleTileMatrix(t *testing.T) {
	d := randomTiled(9, 6, 6, 8) // one tile, nb larger than the matrix
	want := jacobi.SingularValues(d.ToDense())
	out := runBidiag(t, d, trees.FlatTT, 4, 1)
	got := bandSV(out)
	if diff := jacobi.MaxRelDiff(got, want); diff > 1e-12 {
		t.Fatalf("single-tile bidiag wrong: %g", diff)
	}
}

func TestDistributedOwnerMapping(t *testing.T) {
	// 2×2 block-cyclic owners; verify the DAG respects owner-compute and
	// that a distributed simulation completes with communication.
	d := randomTiled(10, 24, 24, 4)
	g := sched.NewGraph()
	owner := func(i, j int) int32 { return int32((i%2)*2 + j%2) }
	BuildBidiag(g, ShapeOf(24, 24, 4), d, Config{Tree: trees.Greedy, Owner: owner})
	res := g.SimulateDistributed(sched.DistConfig{
		Nodes: 4, WorkersPerNode: 2, Latency: 0.01, BytesPerTime: 1e6, TimeOf: sched.WeightTime,
	})
	if res.CommVolume <= 0 {
		t.Fatalf("block-cyclic run should communicate")
	}
	if res.Makespan < g.CriticalPath(sched.WeightTime) {
		t.Fatalf("makespan below critical path")
	}
}

func TestShapeOf(t *testing.T) {
	sh := ShapeOf(25, 13, 4)
	if sh.P != 7 || sh.Q != 4 || sh.RowsOf(6) != 1 || sh.ColsOf(3) != 1 {
		t.Fatalf("shape wrong: %+v", sh)
	}
	if sh.RowsOf(0) != 4 || sh.ColsOf(0) != 4 {
		t.Fatalf("full tiles wrong")
	}
}

func TestTaskCountsBidiagFlatTS(t *testing.T) {
	// For a p×q full-tile matrix with FlatTS, QR step k has 1 GEQRT,
	// (p−k−1) TSQRT, (q−k−1) UNMQR and (p−k−1)(q−k−1) TSMQR (0-based k).
	p, q, nb := 5, 3, 2
	g := sched.NewGraph()
	BuildBidiag(g, ShapeOf(p*nb, q*nb, nb), nil, Config{Tree: trees.FlatTS})
	s := g.Summary()
	wantGEQRT := q     // one per QR step
	wantGELQT := q - 1 // one per LQ step
	wantTSQRT := 0
	wantTSMQR := 0
	for k := 0; k < q; k++ {
		wantTSQRT += p - k - 1
		wantTSMQR += (p - k - 1) * (q - k - 1)
	}
	wantTSLQT := 0
	wantTSMLQ := 0
	for k := 0; k < q-1; k++ {
		// LQ step k eliminates q−k−2 columns, updating p−k−1 rows.
		wantTSLQT += q - k - 2
		wantTSMLQ += (q - k - 2) * (p - k - 1)
	}
	checks := map[string][2]int{
		"GEQRT": {s.PerKind[0], wantGEQRT},
		"TSQRT": {s.PerKind[2], wantTSQRT},
		"TSMQR": {s.PerKind[3], wantTSMQR},
		"GELQT": {s.PerKind[6], wantGELQT},
		"TSLQT": {s.PerKind[8], wantTSLQT},
		"TSMLQ": {s.PerKind[9], wantTSMLQ},
	}
	for name, c := range checks {
		if c[0] != c[1] {
			t.Errorf("%s count = %d, want %d", name, c[0], c[1])
		}
	}
}

// BenchmarkBuild times a real-data graph build (no execution) at the
// benchmark's two shapes: square BIDIAG and tall-skinny R-BIDIAG, nb 64.
func BenchmarkBuild(b *testing.B) {
	cases := []struct {
		name  string
		m, n  int
		build func(*sched.Graph, Shape, *tile.Matrix, Config)
	}{
		{"bidiag768", 768, 768, BuildBidiag},
		{"rbidiag8192x256", 8192, 256, func(g *sched.Graph, sh Shape, d *tile.Matrix, cfg Config) {
			BuildRBidiag(g, sh, d, cfg)
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			d := randomTiled(1, c.m, c.n, 64)
			sh := ShapeOf(c.m, c.n, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.build(sched.NewGraph(), sh, d, Config{Tree: trees.Auto, Cores: 2})
			}
		})
	}
}
