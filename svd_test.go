package bidiag

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/sched"
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
// shape alone. The shapes: a small BIDIAG one, the benchmark's 256² at
// nb 64, 336² whose 336 columns make two row panels per factor, and an
// R-BIDIAG one whose two recorded stages both have a left product.
func TestSVDAcrossWorkersDeterministic(t *testing.T) {
	for _, c := range []struct {
		m, n, nb int
		alg      Algorithm
		workers  []int
	}{
		{40, 24, 8, Bidiag, []int{2, 4}},
		{256, 256, 64, Bidiag, []int{2, 4}},
		{336, 336, 8, Bidiag, []int{2, 4}},
		{200, 48, 16, RBidiag, []int{2, 3}},
	} {
		a := randomDense(10, c.m, c.n)
		ref, err := SVD(a, &Options{NB: c.nb, Workers: 1, Tree: Greedy, Algorithm: c.alg})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range c.workers {
			r, err := SVD(a, &Options{NB: c.nb, Workers: workers, Tree: Greedy, Algorithm: c.alg})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref.S {
				if ref.S[i] != r.S[i] {
					t.Fatalf("%dx%d: singular values depend on worker count", c.m, c.n)
				}
			}
			for i := range ref.U.inner.Data {
				if ref.U.inner.Data[i] != r.U.inner.Data[i] {
					t.Fatalf("%dx%d: U depends on worker count (%d workers)", c.m, c.n, workers)
				}
			}
			for i := range ref.V.inner.Data {
				if ref.V.inner.Data[i] != r.V.inner.Data[i] {
					t.Fatalf("%dx%d: V depends on worker count (%d workers)", c.m, c.n, workers)
				}
			}
		}
	}
}

// cancelAt is an executor that cancels the call's ctx when it is handed
// the nth graph (counting from 1) whose first task is of one of kinds,
// then runs every graph on ex. It is safe for concurrent use: the two
// back-transforms are submitted together.
type cancelAt struct {
	ex     pipeline.Executor
	kinds  []kernels.Kind
	nth    int
	cancel context.CancelFunc

	mu   sync.Mutex
	seen int
}

func (c *cancelAt) Name() string { return "cancel-at" }

func (c *cancelAt) Execute(ctx context.Context, g *sched.Graph) (*pipeline.Report, error) {
	c.mu.Lock()
	if len(g.Tasks) > 0 && slices.Contains(c.kinds, g.Tasks[0].Kind) {
		if c.seen++; c.seen == c.nth {
			c.cancel()
		}
	}
	c.mu.Unlock()
	return c.ex.Execute(ctx, g)
}

// TestFinishSVDHonoursContext cancels finishSVD before each of its five
// stages in turn (logged chase, FormQP, bidiagonal vectors, left apply,
// right apply) and once between two batches of rotations: every one
// returns context.Canceled and no result, and a context that stays live
// gets the decomposition. A stage is cancelled just before its first
// graph runs (the chase, which has none, by a ctx cancelled before the
// call), on the sequential engine and on a shared runtime.
func TestFinishSVDHonoursContext(t *testing.T) {
	a := randomDense(12, 96, 64) // n = 64: two batches of rotations
	left := []kernels.Kind{kernels.UNMQRKind, kernels.TSMQRKind, kernels.TTMQRKind}
	right := []kernels.Kind{kernels.UNMLQKind, kernels.TSMLQKind, kernels.TTMLQKind}
	rt := sched.NewRuntime(2)
	defer rt.Close()
	for _, ex := range []pipeline.Executor{pipeline.Sequential{}, pipeline.Shared{Runtime: rt}} {
		for _, c := range []struct {
			name  string
			kinds []kernels.Kind
			nth   int
		}{
			{"logged chase", nil, 0},
			{"FormQP", []kernels.Kind{kernels.BRDQPKind}, 1},
			{"bidiagonal vectors", []kernels.Kind{kernels.BDROTKind}, 1},
			{"second rotation batch", []kernels.Kind{kernels.BDROTKind}, 2},
			{"left apply", left, 1},
			{"right apply", right, 1},
			{"live", nil, -1},
		} {
			opts, src, treeKind, transposed, err := prepare(a, &Options{NB: 8, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			j, err := newJob(JobSVD, src, opts, treeKind, transposed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pipeline.RunCtx(context.Background(), j.plan, pipeline.Sequential{}); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			if c.nth == 0 {
				cancel()
			}
			at := &cancelAt{ex: ex, kinds: c.kinds, nth: c.nth, cancel: cancel}
			res, err := j.finish(ctx, at)
			cancel()
			if c.nth >= 0 && (res != nil || !errors.Is(err, context.Canceled)) {
				t.Fatalf("%s, cancelled before %s: result %v, error %v", ex.Name(), c.name, res != nil, err)
			}
			if c.nth < 0 && (err != nil || res == nil || res.SVD.U == nil || res.SVD.V == nil) {
				t.Fatalf("%s, live context: error %v", ex.Name(), err)
			}
		}
	}
}
