package bidiag

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/pipeline"
)

// svdResidual returns ‖A − U·diag(S)·Vᵀ‖_max / ‖A‖_F.
func svdResidual(a *Dense, r *SVDResult) float64 {
	m, n := a.Rows(), a.Cols()
	k := len(r.S)
	us := nla.NewMatrix(m, k)
	for j := 0; j < k; j++ {
		for i := 0; i < m; i++ {
			us.Set(i, j, r.U.At(i, j)*r.S[j])
		}
	}
	recon := nla.MulABT(us, r.V.inner)
	mx := 0.0
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if d := math.Abs(recon.At(i, j) - a.At(i, j)); d > mx {
				mx = d
			}
		}
	}
	return mx / a.inner.FrobeniusNorm()
}

func orthoError(d *Dense) float64 {
	return nla.OrthogonalityError(d.inner)
}

func TestSVDReconstruction(t *testing.T) {
	for _, cfg := range []struct {
		m, n int
		tree Tree
		alg  Algorithm
	}{
		{48, 48, Auto, Bidiag},
		{64, 32, Greedy, Bidiag},
		{96, 24, FlatTS, RBidiag},
		{80, 40, FlatTT, AutoAlgorithm},
		{50, 50, Greedy, AutoAlgorithm},
	} {
		a := randomDense(int64(cfg.m*100+cfg.n), cfg.m, cfg.n)
		r, err := SVD(a, &Options{NB: 8, Tree: cfg.tree, Algorithm: cfg.alg, Workers: 3})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if res := svdResidual(a, r); res > 1e-12 {
			t.Errorf("%+v: reconstruction residual %g", cfg, res)
		}
		if e := orthoError(r.U); e > 1e-12 {
			t.Errorf("%+v: U not orthonormal: %g", cfg, e)
		}
		if e := orthoError(r.V); e > 1e-12 {
			t.Errorf("%+v: V not orthonormal: %g", cfg, e)
		}
	}
}

// TestSVDValuesMatchPipeline: SVD runs the values pipeline's own stages
// (the same chase arithmetic, the same dqds call), so its S is bitwise
// what the sequential values oracle returns and — because the task-graph
// chase is bitwise equal to it — what SingularValues returns.
func TestSVDValuesMatchPipeline(t *testing.T) {
	for _, shape := range [][2]int{{60, 30}, {70, 70}, {20, 45}} {
		a := randomDense(7, shape[0], shape[1])
		for _, alg := range []Algorithm{Bidiag, RBidiag} {
			opts := &Options{NB: 8, Algorithm: alg}
			r, err := SVD(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, values := range []func(*Dense, *Options) ([]float64, error){sequentialValues, SingularValues} {
				sv, err := values(a, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i := range sv {
					if math.Float64bits(r.S[i]) != math.Float64bits(sv[i]) {
						t.Fatalf("%v %v: S[%d] = %v, the values pipeline gives %v", shape, alg, i, r.S[i], sv[i])
					}
				}
			}
		}
	}
}

func TestSVDWideMatrix(t *testing.T) {
	a := randomDense(8, 20, 50)
	r, err := SVD(a, &Options{NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.U.Rows() != 20 || r.U.Cols() != 20 || r.V.Rows() != 50 || r.V.Cols() != 20 {
		t.Fatalf("thin shapes wrong: U %dx%d, V %dx%d", r.U.Rows(), r.U.Cols(), r.V.Rows(), r.V.Cols())
	}
	if res := svdResidual(a, r); res > 1e-12 {
		t.Fatalf("wide reconstruction residual %g", res)
	}
	if e := orthoError(r.U); e > 1e-12 {
		t.Fatalf("U not orthonormal: %g", e)
	}
	if e := orthoError(r.V); e > 1e-12 {
		t.Fatalf("V not orthonormal: %g", e)
	}
}

func TestSVDSingleColumn(t *testing.T) {
	a := randomDense(9, 15, 1)
	r, err := SVD(a, &Options{NB: 4})
	if err != nil {
		t.Fatal(err)
	}
	var norm float64
	for i := 0; i < 15; i++ {
		norm += a.At(i, 0) * a.At(i, 0)
	}
	norm = math.Sqrt(norm)
	if math.Abs(r.S[0]-norm) > 1e-13*norm {
		t.Fatalf("σ₁ should equal the column norm")
	}
	if res := svdResidual(a, r); res > 1e-12 {
		t.Fatalf("residual %g", res)
	}
}

// TestSVDAcrossWorkersDeterministic: S, U and V do not depend on the
// worker count by a single bit — stage 1 by the parity contract of the
// task graph, stages 2 and 3 because their row-panel cut depends on the
// shape alone.
func TestSVDAcrossWorkersDeterministic(t *testing.T) {
	// 40×24 stays on the calling goroutine whatever Workers says
	// (core.SVDWorkers); 336² is past that cut-over and its 336 columns
	// make two row panels per factor.
	for _, shape := range [][2]int{{40, 24}, {336, 336}} {
		a := randomDense(10, shape[0], shape[1])
		ref, err := SVD(a, &Options{NB: 8, Workers: 1, Tree: Greedy, Algorithm: Bidiag})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			r, err := SVD(a, &Options{NB: 8, Workers: workers, Tree: Greedy, Algorithm: Bidiag})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref.S {
				if ref.S[i] != r.S[i] {
					t.Fatalf("%v: singular values depend on worker count", shape)
				}
			}
			for i := range ref.U.inner.Data {
				if ref.U.inner.Data[i] != r.U.inner.Data[i] {
					t.Fatalf("%v: U depends on worker count (%d workers)", shape, workers)
				}
			}
			for i := range ref.V.inner.Data {
				if ref.V.inner.Data[i] != r.V.inner.Data[i] {
					t.Fatalf("%v: V depends on worker count (%d workers)", shape, workers)
				}
			}
		}
	}
}

// cancelAfter is a context whose Err reports nil for its first n calls
// and context.Canceled from then on.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestFinishSVDHonoursContext cancels finishSVD before each of its five
// stages in turn (logged chase, FormQP, bidiagonal vectors, left apply,
// right apply): every one returns context.Canceled and no result, and a
// context that stays live through all five checks gets the decomposition.
func TestFinishSVDHonoursContext(t *testing.T) {
	a := randomDense(12, 48, 32)
	for n := 0; n <= 5; n++ {
		opts, src, treeKind, transposed, err := prepare(a, &Options{NB: 8, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rec := &core.Recorder{}
		plan, ex, err := buildPlan(src, opts, treeKind, rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pipeline.RunCtx(context.Background(), plan, ex); err != nil {
			t.Fatal(err)
		}
		res, err := finishSVD(&cancelAfter{context.Background(), n}, plan, rec, 1, transposed)
		if n < 5 && (res != nil || !errors.Is(err, context.Canceled)) {
			t.Fatalf("cancelled before stage %d: result %v, error %v", n+1, res != nil, err)
		}
		if n == 5 && (err != nil || res == nil || res.U == nil || res.V == nil) {
			t.Fatalf("live context: error %v", err)
		}
	}
}
