package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
)

// TestSharedExecutorParity runs fused plans on a shared runtime next to
// the staged sequential oracle: the shared engine is one more schedule of
// the same DAG, so the result must be bitwise-identical.
func TestSharedExecutorParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rt := sched.NewRuntime(3)
	defer rt.Close()
	grid := dist.Grid{R: 2, C: 2}
	const wpn = 2
	for _, tc := range []struct{ m, n, nb int }{{97, 67, 32}, {96, 96, 32}, {64, 40, 16}} {
		src := nla.RandomMatrix(rng, tc.m, tc.n)
		ref := stagedReference(t, specFor(src, tc.nb, grid, wpn, false, false, 0))
		p := Build(specFor(src, tc.nb, grid, wpn, false, true, 0))
		rep, err := Run(p, Shared{Runtime: rt})
		if err != nil {
			t.Fatalf("shared run %dx%d: %v", tc.m, tc.n, err)
		}
		if rep.Executor != "shared" || rep.Tasks != len(p.Graph.Tasks) {
			t.Fatalf("shared report: %+v", rep)
		}
		diffBidiagonal(t, fmt.Sprintf("shared %dx%d", tc.m, tc.n), ref, p.Bidiagonal())
	}
}

// TestGangGraphParity packs several independent fused plans into ONE
// graph via Spec.Graph and executes them together — the serving layer's
// gang-batching primitive. Every member must come out bitwise-identical
// to its solo staged run.
func TestGangGraphParity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	grid := dist.Grid{R: 1, C: 2}
	const wpn = 2
	shapes := []struct{ m, n int }{{64, 48}, {96, 64}, {80, 80}, {48, 32}}

	srcs := make([]*nla.Matrix, len(shapes))
	refs := make([][2][]float64, len(shapes))
	for i, s := range shapes {
		srcs[i] = nla.RandomMatrix(rng, s.m, s.n)
		ref := stagedReference(t, specFor(srcs[i], 32, grid, wpn, false, false, 0))
		d, e := ref.Bidiagonal()
		refs[i] = [2][]float64{d, e}
	}

	for _, ex := range []Executor{Sequential{}, Pool{Workers: 3}} {
		gang := sched.NewGraph()
		plans := make([]*Plan, len(shapes))
		for i := range shapes {
			spec := specFor(srcs[i], 32, grid, wpn, false, true, 0)
			spec.Graph = gang
			plans[i] = Build(spec)
		}
		total := 0
		for _, p := range plans {
			for _, st := range p.Stages {
				total += st.Tasks
			}
		}
		if total != len(gang.Tasks) {
			t.Fatalf("gang stage accounting: %d tasks in stages, %d in graph", total, len(gang.Tasks))
		}
		if err := gang.CheckAcyclic(); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(plans[0], ex); err != nil { // all plans share the graph
			t.Fatalf("gang run on %s: %v", ex.Name(), err)
		}
		for i, p := range plans {
			got := p.Bidiagonal()
			gd, ge := got.Bidiagonal()
			for k := range refs[i][0] {
				if refs[i][0][k] != gd[k] {
					t.Fatalf("%s gang member %d: diagonal %d differs bitwise", ex.Name(), i, k)
				}
			}
			for k := range refs[i][1] {
				if refs[i][1][k] != ge[k] {
					t.Fatalf("%s gang member %d: superdiagonal %d differs bitwise", ex.Name(), i, k)
				}
			}
		}
	}
}
