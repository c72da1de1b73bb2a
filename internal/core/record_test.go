package core

import (
	"math"
	"testing"

	"github.com/tiled-la/bidiag/internal/jacobi"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/trees"
)

// reconstructViaRecorder runs GE2BND with recording and rebuilds
// A = Q·B·Pᵀ from the band and the recorded transformation product.
func reconstructViaRecorder(t *testing.T, m, n, nb int, tr trees.Kind, rbidiag bool) (orig, recon *nla.Matrix) {
	t.Helper()
	d := randomTiled(99, m, n, nb)
	orig = d.ToDense()
	rec := &Recorder{}
	g := sched.NewGraph()
	cfg := Config{Tree: tr, Cores: 4, Recorder: rec}
	work := d.Clone()
	result := work
	if rbidiag {
		_, result = BuildRBidiag(g, ShapeOf(m, n, nb), work, cfg)
	} else {
		BuildBidiag(g, ShapeOf(m, n, nb), work, cfg)
	}
	g.RunParallel(4)

	// B (band, n×n logical) = Qᵀ A P ⇒ A = Q·[B;0]·Pᵀ.
	band := result.ExtractBand(result.NB).ToDense()
	left, err := rec.ApplyLeftAll(band, 4) // Q·[B; 0]  (m×n)
	if err != nil {
		panic(err)
	}
	// Apply Pᵀ from the right: recon = left·Pᵀ = (ApplyRightAll(leftᵀ?)…)
	// ApplyRightAll computes X·F_Lᵀ···F_1ᵀ = X·Pᵀ for any X with n columns.
	recon, err = rec.ApplyRightAll(left, 4)
	if err != nil {
		panic(err)
	}
	return orig, recon
}

func TestRecorderReconstructsBidiag(t *testing.T) {
	for _, tr := range []trees.Kind{trees.FlatTS, trees.FlatTT, trees.Greedy, trees.Auto} {
		orig, recon := reconstructViaRecorder(t, 30, 18, 4, tr, false)
		if d := maxAbsDiff(orig, recon); d > 1e-12 {
			t.Errorf("%v: ‖A − Q·B·Pᵀ‖ = %g", tr, d)
		}
	}
}

func TestRecorderReconstructsRBidiag(t *testing.T) {
	for _, tr := range []trees.Kind{trees.FlatTS, trees.Greedy} {
		orig, recon := reconstructViaRecorder(t, 40, 12, 4, tr, true)
		if d := maxAbsDiff(orig, recon); d > 1e-12 {
			t.Errorf("%v: R-BIDIAG ‖A − Q·B·Pᵀ‖ = %g", tr, d)
		}
	}
}

func TestRecorderStageStructure(t *testing.T) {
	d := randomTiled(7, 24, 8, 4)
	rec := &Recorder{}
	g := sched.NewGraph()
	BuildRBidiag(g, ShapeOf(24, 8, 4), d, Config{Tree: trees.Greedy, Recorder: rec})
	g.RunSequential()
	if len(rec.Stages) != 2 {
		t.Fatalf("R-BIDIAG should record two stages, got %d", len(rec.Stages))
	}
	if rec.Stages[0].Sh.M != 24 || rec.Stages[1].Sh.M != 8 {
		t.Fatalf("stage shapes wrong: %+v, %+v", rec.Stages[0].Sh, rec.Stages[1].Sh)
	}
	if len(rec.Stages[0].right) != 0 {
		t.Fatalf("the QR phase must not record right transforms")
	}
	if len(rec.Stages[1].right) == 0 {
		t.Fatalf("the bidiagonalization phase must record right transforms")
	}
}

func TestRecorderRequiresData(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for sim-only recording")
		}
	}()
	g := sched.NewGraph()
	BuildBidiag(g, ShapeOf(8, 8, 2), nil, Config{Tree: trees.Greedy, Recorder: &Recorder{}})
}

func TestRecorderOrthogonality(t *testing.T) {
	// Q formed by applying the left product to the identity must be
	// orthogonal.
	m, n, nb := 20, 12, 4
	d := randomTiled(13, m, n, nb)
	rec := &Recorder{}
	g := sched.NewGraph()
	BuildBidiag(g, ShapeOf(m, n, nb), d, Config{Tree: trees.Greedy, Recorder: rec})
	g.RunSequential()
	q, err := rec.ApplyLeftAll(nla.Identity(n), 1) // thin Q: m×n
	if err != nil {
		t.Fatal(err)
	}
	if e := nla.OrthogonalityError(q); e > 1e-13 {
		t.Fatalf("thin Q not orthonormal: %g", e)
	}
	sv := jacobi.SingularValues(q)
	for _, v := range sv {
		if math.Abs(v-1) > 1e-13 {
			t.Fatalf("Q has non-unit singular value %v", v)
		}
	}
}

func maxAbsDiff(a, b *nla.Matrix) float64 {
	mx := 0.0
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if d := math.Abs(a.At(i, j) - b.At(i, j)); d > mx {
				mx = d
			}
		}
	}
	return mx
}
