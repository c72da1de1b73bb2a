package pipeline

import (
	"context"
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

// TestTemplateConcurrentJobs runs jobs of two keys, a values job's and
// an SVD job's (the same graph recording its reflectors), from several
// goroutines at once on a shared runtime, alternating two inputs: every
// job gets a template of its own and computes its input's sequential
// reference bit for bit. A values job chases its band through a chase
// template; an SVD job applies its recorded reflectors to two fixed
// matrices.
func TestTemplateConcurrentJobs(t *testing.T) {
	rt := sched.NewRuntime(2)
	defer rt.Close()
	const m, n, nb = 112, 40, 16
	rng := rand.New(rand.NewSource(7))
	srcs := []*nla.Matrix{nla.RandomMatrix(rng, m, n), nla.RandomMatrix(rng, m, n)}
	ub, vb := nla.RandomMatrix(rng, n, n), nla.RandomMatrix(rng, n, n)
	job := Local{NB: nb, RBidiag: true, Tree: trees.Auto, Cores: 2}
	shared := func(g *sched.Graph) error {
		_, err := Shared{Runtime: rt}.Execute(context.Background(), g)
		return err
	}
	// applied flattens the recorded products applied to ub and vb.
	applied := func(rec *core.Recorder, run core.Run) ([]float64, error) {
		u, v, err := rec.ApplyBoth(ub, vb, run, false)
		if err != nil {
			return nil, err
		}
		return slices.Concat(u.Data, v.Data), nil
	}
	var refs [2][2][]float64 // [input][records]
	for k, src := range srcs {
		for r, records := range []bool{false, true} {
			spec := job.Spec(m, n)
			spec.Data = tile.FromDense(src, nb)
			if records {
				spec.Config.Recorder = &core.Recorder{}
			}
			p := Build(spec)
			if _, err := Run(p, Sequential{}); err != nil {
				t.Fatal(err)
			}
			d, e := band.Reduce(p.Tiles.ExtractBand(nb)).Bidiagonal()
			refs[k][r] = slices.Concat(d, e)
			if records {
				out, err := applied(spec.Config.Recorder, (*sched.Graph).RunSequential)
				if err != nil {
					t.Fatal(err)
				}
				refs[k][r] = append(refs[k][r], out...)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k, r := (w+i)%2, (w/2+i)%2
				p := Template(job, srcs[k], r == 1)
				if _, err := Run(p, Shared{Runtime: rt}); err != nil {
					t.Error(err)
					return
				}
				var got []float64
				if r == 0 {
					chase := Chase(n, nb, 0, p.Tiles.ExtractBandInto)
					if _, err := Run(chase, Shared{Runtime: rt}); err != nil {
						t.Error(err)
						return
					}
					d, e := chase.Bidiagonal().Bidiagonal()
					got = slices.Concat(d, e)
					chase.Return()
				} else {
					d, e := band.Reduce(p.Tiles.ExtractBand(nb)).Bidiagonal()
					out, err := applied(p.Recorder, shared)
					if err != nil {
						t.Error(err)
						return
					}
					got = slices.Concat(d, e, out)
				}
				p.Return()
				if !slices.Equal(got, refs[k][r]) {
					t.Errorf("worker %d job %d (records %v) differs from its reference", w, i, r == 1)
				}
			}
		}()
	}
	wg.Wait()
}
