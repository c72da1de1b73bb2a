package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
)

// TestSharedExecutorParity runs both plans of the values pipeline on a
// shared runtime next to the sequential oracle: the shared engine is one
// more schedule of the same DAGs, so the result must be bitwise-identical.
func TestSharedExecutorParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rt := sched.NewRuntime(3)
	defer rt.Close()
	grid := dist.Grid{R: 2, C: 2}
	const wpn = 2
	for _, tc := range []struct{ m, n, nb int }{{97, 67, 32}, {96, 96, 32}, {64, 40, 16}} {
		src := nla.RandomMatrix(rng, tc.m, tc.n)
		ref := reference(t, specFor(src, tc.nb, grid, wpn, false))
		ex := Shared{Runtime: rt}
		diffBidiagonal(t, fmt.Sprintf("shared %dx%d", tc.m, tc.n), ref, runValues(t, specFor(src, tc.nb, grid, wpn, false), ex, 0))
		if rep, err := Run(Build(specFor(src, tc.nb, grid, wpn, false)), ex); err != nil || rep.Executor != "shared" {
			t.Fatalf("shared report: %+v, %v", rep, err)
		}
	}
}
