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
