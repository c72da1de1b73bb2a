package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
	"github.com/tiled-la/bidiag/internal/trees"
)

// specFor builds a fresh Spec over its own tiled copy of src. The
// distributed-style config is used for every engine so all runs execute
// the SAME graph (the hierarchical trees adapt to the grid, so parity is
// a property of one DAG under different schedules).
func specFor(src *nla.Matrix, nb int, grid dist.Grid, wpn int, useR bool) Spec {
	sh := core.ShapeOf(src.Rows, src.Cols, nb)
	return Spec{
		Shape:   sh,
		Data:    tile.FromDense(src, nb),
		Config:  dist.AutoDefaults(sh, grid, wpn).Configure(),
		RBidiag: useR,
	}
}

// reference runs the values pipeline sequentially: GE2BND, band
// extraction, the sequential bulge chase — the oracle every executor
// must match bitwise.
func reference(t *testing.T, spec Spec) *band.Matrix {
	t.Helper()
	p := Build(spec)
	if _, err := Run(p, Sequential{}); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return band.Reduce(p.Tiles.ExtractBand(p.Tiles.NB))
}

// runValues runs both plans of the values pipeline on ex — GE2BND, then
// the chase of the band it leaves — and returns the bidiagonal.
func runValues(t *testing.T, spec Spec, ex Executor, window int) *band.Matrix {
	t.Helper()
	p := Build(spec)
	if err := p.Graph.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(p, ex)
	if err != nil {
		t.Fatalf("%s: %v", ex.Name(), err)
	}
	if rep.Tasks != len(p.Graph.Tasks) {
		t.Fatalf("%s: ran %d of %d tasks", ex.Name(), rep.Tasks, len(p.Graph.Tasks))
	}
	if ex.Name() == "owner-compute" && rep.Dist == nil {
		t.Fatalf("owner-compute reported no dist stats")
	}
	chase := BuildBND2BD(p.Tiles.ExtractBand(p.Tiles.NB), window)
	if _, err := Run(chase, ex); err != nil {
		t.Fatalf("%s chase: %v", ex.Name(), err)
	}
	return chase.Bidiagonal()
}

func diffBidiagonal(t *testing.T, label string, ref, got *band.Matrix) {
	t.Helper()
	if ref.N != got.N {
		t.Fatalf("%s: order %d != %d", label, got.N, ref.N)
	}
	rd, re := ref.Bidiagonal()
	gd, ge := got.Bidiagonal()
	for i := range rd {
		if rd[i] != gd[i] {
			t.Fatalf("%s: diagonal %d differs bitwise: %v != %v", label, i, gd[i], rd[i])
		}
	}
	for i := range re {
		if re[i] != ge[i] {
			t.Fatalf("%s: superdiagonal %d differs bitwise: %v != %v", label, i, ge[i], re[i])
		}
	}
}

// TestExecutorParity is the executor layer's core property: both plans
// of the values pipeline, executed by every engine, reproduce the
// sequential reference bit for bit, whatever the chase's cut width.
func TestExecutorParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		m, n, nb int
		useR     bool
		window   int
	}{
		{97, 67, 32, false, 0},
		{130, 70, 32, true, 0},
		{96, 96, 32, false, 17},
		{100, 100, 48, false, 40},
		{64, 24, 16, true, 0},
	}
	grid := dist.Grid{R: 2, C: 2}
	const wpn = 2
	for _, tc := range cases {
		name := fmt.Sprintf("%dx%d/nb=%d/rbidiag=%v/w=%d", tc.m, tc.n, tc.nb, tc.useR, tc.window)
		t.Run(name, func(t *testing.T) {
			src := nla.RandomMatrix(rng, tc.m, tc.n)
			ref := reference(t, specFor(src, tc.nb, grid, wpn, tc.useR))
			for _, ex := range []Executor{
				Sequential{},
				Pool{Workers: 3},
				OwnerCompute{Grid: grid, WorkersPerNode: wpn},
			} {
				diffBidiagonal(t, ex.Name(), ref, runValues(t, specFor(src, tc.nb, grid, wpn, tc.useR), ex, tc.window))
			}
		})
	}
}

// TestStageAccounting pins the chase plan's bookkeeping: it has exactly
// the tasks band.Tasks predicts.
func TestStageAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := nla.RandomMatrix(rng, 96, 64)
	p := Build(specFor(src, 32, dist.Grid{R: 1, C: 1}, 1, false))
	for _, window := range []int{0, 32} {
		chase := BuildBND2BD(p.Tiles.ExtractBand(32), window)
		if want := band.Tasks(64, 32, window); len(chase.Graph.Tasks) != want || want == 0 {
			t.Fatalf("window %d: chase has %d tasks, band.Tasks says %d", window, len(chase.Graph.Tasks), want)
		}
	}
}

// TestBuildSimulationOnly checks that a plan can be built without data —
// the mode the planner prices candidates in — and that it is the GE2BND
// graph the core builder emits, weights and all.
func TestBuildSimulationOnly(t *testing.T) {
	sh := core.ShapeOf(256, 256, 32)
	cfg := core.Config{Tree: trees.Greedy}
	p := Build(Spec{Shape: sh, Config: cfg})
	if p.Tiles != nil {
		t.Fatalf("simulation-only build materialized tiles")
	}
	g := sched.NewGraph()
	core.BuildBidiag(g, sh, nil, cfg)
	cp, want := p.Graph.CriticalPath(sched.FlopsTime), g.CriticalPath(sched.FlopsTime)
	if len(p.Graph.Tasks) != len(g.Tasks) || cp != want || cp <= 0 {
		t.Fatalf("plan has %d tasks, cp %v; core builder %d tasks, cp %v", len(p.Graph.Tasks), cp, len(g.Tasks), want)
	}
}

// TestBND2BDOnlyPlan checks the stage-2 plan over an existing band: it
// must reproduce band.Reduce bitwise on every executor.
func TestBND2BDOnlyPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	b := band.New(150, 9)
	for i := 0; i < b.N; i++ {
		for j := i; j <= i+b.KU && j < b.N; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	ref := band.Reduce(b)
	for _, ex := range []Executor{Sequential{}, Pool{Workers: 4}} {
		p := BuildBND2BD(b, 33)
		if _, err := Run(p, ex); err != nil {
			t.Fatalf("%s: %v", ex.Name(), err)
		}
		diffBidiagonal(t, ex.Name(), ref, p.Bidiagonal())
	}
}
