package pipeline

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
	"github.com/tiled-la/bidiag/internal/trees"
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

// TestTemplateConcurrentJobs runs values jobs of one key from several
// goroutines at once on a shared runtime, each through a GE2BND template
// and a chase template, alternating two inputs: every job gets a template
// of its own and computes its input's sequential reference bit for bit.
func TestTemplateConcurrentJobs(t *testing.T) {
	rt := sched.NewRuntime(2)
	defer rt.Close()
	const nb = 16
	rng := rand.New(rand.NewSource(7))
	srcs := []*nla.Matrix{nla.RandomMatrix(rng, 112, 40), nla.RandomMatrix(rng, 112, 40)}
	spec := Spec{Shape: core.ShapeOf(112, 40, nb), Config: core.Config{Tree: trees.Auto, Cores: 2}, RBidiag: true}
	var refs []*band.Matrix
	for _, src := range srcs {
		fresh := spec
		fresh.Data = tile.FromDense(src, nb)
		p := Build(fresh)
		if _, err := Run(p, Sequential{}); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, band.Reduce(p.Tiles.ExtractBand(nb)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k := (w + i) % 2
				p := Template(spec, srcs[k])
				if _, err := Run(p, Shared{Runtime: rt}); err != nil {
					t.Error(err)
					return
				}
				chase := Chase(40, nb, 0, p.Tiles.ExtractBandInto)
				if _, err := Run(chase, Shared{Runtime: rt}); err != nil {
					t.Error(err)
					return
				}
				got := chase.Bidiagonal()
				chase.Return()
				p.Return()
				if !sameBidiagonal(got, refs[k]) {
					t.Errorf("worker %d job %d differs from its reference", w, i)
				}
			}
		}()
	}
	wg.Wait()
}

// sameBidiagonal reports whether two bidiagonals are bitwise equal.
func sameBidiagonal(a, b *band.Matrix) bool {
	ad, ae := a.Bidiagonal()
	bd, be := b.Bidiagonal()
	return slices.Equal(ad, bd) && slices.Equal(ae, be)
}
