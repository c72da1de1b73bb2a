package experiments

import (
	"math/rand"

	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/critpath"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/obs"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/tile"
	"github.com/tiled-la/bidiag/internal/trees"
)

// ReconcileRun executes one REAL traced GE2BND run on
// the goroutine pool and reconciles it against the flop model: it builds
// the graph over a deterministic random m×n matrix, attaches an
// obs.Tracer sized for a complete trace, runs on `workers` workers, and
// returns the critpath.Reconcile report next to the raw events (for
// Chrome-trace export). Unlike the rest of this package, which replays
// graphs in virtual time, this is a wall-clock measurement — the bridge
// between the paper's model world and the machine the tests run on.
func ReconcileRun(tree trees.Kind, m, n, nb, workers int) (*critpath.ReconcileReport, []obs.Event, error) {
	rng := rand.New(rand.NewSource(int64(m)*1_000_003 + int64(n)*1009 + int64(nb)))
	src := nla.RandomMatrix(rng, m, n)
	sh := core.ShapeOf(m, n, nb)
	p := pipeline.Build(pipeline.Spec{
		Shape:  sh,
		Data:   tile.FromDense(src, nb),
		Config: core.Config{Tree: tree, Gamma: 2, Cores: workers},
	})
	tr := obs.NewTracer(workers, len(p.Graph.Tasks))
	p.Graph.Tracer = tr
	if _, err := pipeline.Run(p, pipeline.Pool{Workers: workers}); err != nil {
		return nil, nil, err
	}
	events := tr.Events()
	rep, err := critpath.Reconcile(p.Graph, workers, events, tr.Dropped())
	if err != nil {
		return nil, nil, err
	}
	return rep, events, nil
}

// Reconcile tables model-vs-measured makespans for a grid of shapes: the
// real pool's wall clock against the list-scheduling simulation of the
// same DAG under modeled flops, converted to seconds at the measured
// kernel rate (see critpath.ReconcileReport). A ratio near 1 means the
// runtime schedules as tightly as the model's virtual scheduler; the
// per-kind GFLOP/s behind each row is what the planned autotuner will
// calibrate on.
func Reconcile(sc Scale, workers int) (*Table, error) {
	type shape struct{ m, n, nb int }
	shapes := []shape{{1024, 1024, 128}, {2048, 1024, 128}, {1024, 1024, 64}}
	if sc.Small {
		shapes = []shape{{256, 256, 32}, {512, 256, 32}}
	}
	if workers < 1 {
		workers = 1
	}
	t := &Table{
		Name:    "reconcile",
		Caption: "Model-vs-measured GE2BND: real pool wall clock against the simulated makespan at the measured kernel rate",
		Header: []string{"m", "n", "nb", "tree", "workers", "tasks",
			"wall(ms)", "predicted(ms)", "ratio", "util%", "gflops", "cp(meas ms)"},
	}
	for _, s := range shapes {
		for _, tr := range []trees.Kind{trees.FlatTS, trees.Greedy} {
			rep, _, err := ReconcileRun(tr, s.m, s.n, s.nb, workers)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				f0(float64(s.m)), f0(float64(s.n)), f0(float64(s.nb)), tr.String(),
				f0(float64(rep.Workers)), f0(float64(rep.Tasks)),
				f2(rep.WallSeconds * 1e3), f2(rep.PredictedWallSeconds * 1e3),
				f2(rep.MakespanRatio), f1(rep.UtilizationPct),
				f2(rep.MeasuredGFlops), f2(rep.MeasuredCPSecs * 1e3),
			})
		}
	}
	return t, nil
}
