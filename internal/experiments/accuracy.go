package experiments

import (
	"fmt"
	"math/rand"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/bdsqr"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/jacobi"
	"github.com/tiled-la/bidiag/internal/latms"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
	"github.com/tiled-la/bidiag/internal/trees"
)

// Accuracy reproduces the paper's Section VI.A protocol with real
// execution: generate matrices with prescribed singular values (LATMS),
// run the full GE2BND + BND2BD + BD2VAL pipeline, and report the maximum
// relative error against the prescribed spectrum. "We generated a matrix
// with prescribed singular values using LAPACK LATMS and checked that the
// computed singular values were satisfactory up to machine precision."
func Accuracy(sc Scale) *Table {
	type cse struct {
		m, n, nb int
		tree     trees.Kind
		rbidiag  bool
		mode     latms.Mode
		cond     float64
	}
	cases := []cse{
		{128, 128, 32, trees.Auto, false, latms.Geometric, 1e8},
		{128, 128, 32, trees.Greedy, false, latms.Arithmetic, 1e4},
		{256, 64, 32, trees.Auto, true, latms.Geometric, 1e6},
		{256, 64, 32, trees.FlatTS, true, latms.OneSmall, 1e10},
		{200, 120, 48, trees.FlatTT, false, latms.RandomLog, 1e5},
		{320, 64, 32, trees.Greedy, true, latms.Arithmetic, 1e2},
	}
	if sc.Small {
		cases = cases[:3]
	}
	rng := rand.New(rand.NewSource(42))
	t := &Table{
		Name:    "accuracy",
		Caption: "Section VI.A protocol: prescribed (LATMS) singular values recovered by the real pipeline; max relative error vs σmax",
		Header:  []string{"M", "N", "NB", "tree", "algorithm", "mode", "cond", "max rel err"},
	}
	for _, c := range cases {
		a, sigma := latms.Generate(rng, c.m, c.n, c.mode, c.cond)
		work := tile.FromDense(a, c.nb)
		sh := core.ShapeOf(c.m, c.n, c.nb)
		cfg := core.Config{Tree: c.tree, Cores: 4}
		g := sched.NewGraph()
		result := work
		algo := "BIDIAG"
		if c.rbidiag {
			_, result = core.BuildRBidiag(g, sh, work, cfg)
			algo = "R-BIDIAG"
		} else {
			core.BuildBidiag(g, sh, work, cfg)
		}
		err := g.RunParallel(4)
		relErr := "FAILED"
		if err == nil {
			reduced := band.Reduce(result.ExtractBand(result.NB))
			d, e := reduced.Bidiagonal()
			var got []float64
			if got, err = bdsqr.SingularValues(d, e); err == nil {
				relErr = fmt.Sprintf("%.2e", jacobi.MaxRelDiff(got, sigma))
			}
		}
		t.Rows = append(t.Rows, []string{
			f0(float64(c.m)), f0(float64(c.n)), f0(float64(c.nb)),
			c.tree.String(), algo, fmt.Sprintf("%d", c.mode),
			fmt.Sprintf("%.0e", c.cond), relErr,
		})
	}
	return t
}
