package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
	"github.com/tiled-la/bidiag/internal/trees"
)

// specFor builds a fresh Spec over its own tiled copy of src. The
// distributed-style config is used for every engine so all runs execute
// the SAME graph (the hierarchical trees adapt to the grid, so parity is
// a property of one DAG under different schedules).
func specFor(src *nla.Matrix, nb int, grid dist.Grid, wpn int, useR, fused bool, window int) Spec {
	sh := core.ShapeOf(src.Rows, src.Cols, nb)
	return Spec{
		Shape:   sh,
		Data:    tile.FromDense(src, nb),
		Config:  dist.AutoDefaults(sh, grid, wpn).Configure(),
		RBidiag: useR,
		Fused:   fused,
		Window:  window,
	}
}

// stagedReference runs the classic staged path sequentially: GE2BND,
// band extraction, sequential bulge chase — the oracle every fused
// execution must match bitwise.
func stagedReference(t *testing.T, spec Spec) *band.Matrix {
	t.Helper()
	spec.Fused = false
	p := Build(spec)
	if _, err := Run(p, Sequential{}); err != nil {
		t.Fatalf("staged sequential run: %v", err)
	}
	return band.Reduce(p.Tiles.ExtractBand(p.Tiles.NB))
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

// TestFusedMatchesStagedAcrossExecutors is the core fused-pipeline
// property: one fused graph, executed by every engine, reproduces the
// staged sequential reference bit for bit.
func TestFusedMatchesStagedAcrossExecutors(t *testing.T) {
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
		name := fmt.Sprintf("%dx%d/nb=%d/useR=%v/window=%d", tc.m, tc.n, tc.nb, tc.useR, tc.window)
		t.Run(name, func(t *testing.T) {
			src := nla.RandomMatrix(rng, tc.m, tc.n)
			ref := stagedReference(t, specFor(src, tc.nb, grid, wpn, tc.useR, false, tc.window))

			executors := []Executor{
				Sequential{},
				Pool{Workers: 3},
				OwnerCompute{Grid: grid, WorkersPerNode: wpn},
			}
			for _, ex := range executors {
				p := Build(specFor(src, tc.nb, grid, wpn, tc.useR, true, tc.window))
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
				diffBidiagonal(t, ex.Name(), ref, p.Bidiagonal())
			}
		})
	}
}

// TestStageAccounting pins the plan bookkeeping: the staged plan carries
// one stage, the fused plan three, their task counts sum to the graph,
// and the adapter stage holds exactly one task per band tile (2q−1).
func TestStageAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := nla.RandomMatrix(rng, 96, 64)
	grid := dist.Grid{R: 1, C: 1}

	staged := Build(specFor(src, 32, grid, 1, false, false, 0))
	if len(staged.Stages) != 1 || staged.Stages[0].Name != "GE2BND" {
		t.Fatalf("staged stages: %+v", staged.Stages)
	}

	fused := Build(specFor(src, 32, grid, 1, false, true, 0))
	if len(fused.Stages) != 3 {
		t.Fatalf("fused stages: %+v", fused.Stages)
	}
	total := 0
	perName := map[string]int{}
	for _, s := range fused.Stages {
		total += s.Tasks
		perName[s.Name] = s.Tasks
	}
	if total != len(fused.Graph.Tasks) {
		t.Fatalf("stage tasks sum %d != graph %d", total, len(fused.Graph.Tasks))
	}
	q := fused.Shape.Q
	if perName["BANDCP"] != 2*q-1 {
		t.Fatalf("adapter count %d, want %d", perName["BANDCP"], 2*q-1)
	}
	if perName["BND2BD"] == 0 {
		t.Fatalf("no chase segments emitted")
	}
	adapters := 0
	for _, task := range fused.Graph.Tasks {
		if task.Kind == kernels.BANDCPKind {
			adapters++
			if task.Weight != 0 || task.Flops != 0 {
				t.Fatalf("adapter %s carries weight %v flops %v", task.Name(), task.Weight, task.Flops)
			}
		}
	}
	if adapters != perName["BANDCP"] {
		t.Fatalf("graph has %d adapters, stage says %d", adapters, perName["BANDCP"])
	}
}

// TestBuildSimulationOnly checks that a fused plan can be built without
// data — the mode critpath.MeasurePipeline uses — and that the fused
// critical path in flop units never exceeds the sum of the stages'.
func TestBuildSimulationOnly(t *testing.T) {
	sh := core.ShapeOf(256, 256, 32)
	cfg := core.Config{Tree: trees.Greedy}
	fused := Build(Spec{Shape: sh, Config: cfg, Fused: true, Window: 64})
	if fused.Tiles != nil {
		t.Fatalf("simulation-only build materialized tiles")
	}
	cpFused := fused.Graph.CriticalPath(sched.FlopsTime)

	g1 := sched.NewGraph()
	core.BuildBidiag(g1, sh, nil, cfg)
	cp1 := g1.CriticalPath(sched.FlopsTime)
	g2 := sched.NewGraph()
	band.BuildReduceGraph(g2, band.New(256, 32), 64)
	cp2 := g2.CriticalPath(sched.FlopsTime)

	if cpFused <= 0 || cp1 <= 0 || cp2 <= 0 {
		t.Fatalf("degenerate critical paths: fused=%v ge2bnd=%v bnd2bd=%v", cpFused, cp1, cp2)
	}
	if cpFused >= cp1+cp2 {
		t.Fatalf("square shape should overlap: fused cp %v not below staged sum %v", cpFused, cp1+cp2)
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
