// Command trace renders a GE2BND schedule as a Chrome tracing file
// (load in chrome://tracing or https://ui.perfetto.dev): a Gantt view of
// how the chosen reduction tree fills the machine.
//
// It has three modes with one output format, the Chrome document a
// bidiagd /debug/trace/{id} endpoint serves ({"traceEvents":[…],
// "metadata":{…}}, written by cluster.MergedTrace.WriteChrome):
//
//   - Simulated (default): builds the task graph for a p×q tile grid and
//     runs the virtual list scheduler over unit weights (nb³/3), one
//     unit drawn as one millisecond. The timeline is the MODEL's
//     prediction — deterministic, machine-free, the figure the
//     critical-path analysis reasons about.
//
//   - Measured (-measured): factorizes a real m×n matrix on a real worker
//     pool with live task tracing and renders what actually happened —
//     measured start/end timestamps per kernel per worker. It also prints
//     the model-vs-measured reconciliation (predicted vs observed
//     makespan) for the run.
//
//   - Cluster (-cluster FILE): renders a gathered multi-rank trace — the
//     ?format=raw document of a bidiagd cluster head's /debug/trace/{id}
//     endpoint — as Chrome JSON with one process lane per rank and flow
//     arrows tying each send to its recv.
//
// Usage:
//
//	trace -p 32 -q 8 -tree Greedy -workers 8 -o schedule.json
//	trace -p 16 -q 16 -tree Auto -rbidiag -o rbidiag.json
//	trace -measured -m 1024 -n 512 -nb 64 -workers 4 -o measured.json
//	curl -s 'head:8097/debug/trace/j000001?format=raw' > job.raw.json
//	trace -cluster job.raw.json -o job.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/tiled-la/bidiag/internal/cluster"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/experiments"
	"github.com/tiled-la/bidiag/internal/obs"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/trees"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the command: it writes the trace file and a one-line summary to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	p := fs.Int("p", 16, "tile rows (simulated mode)")
	q := fs.Int("q", 8, "tile columns (simulated mode)")
	treeName := fs.String("tree", "Greedy", "tree: FlatTS|FlatTT|Greedy|Auto")
	workers := fs.Int("workers", 8, "virtual cores (simulated) or pool workers (measured)")
	rbidiag := fs.Bool("rbidiag", false, "use R-BIDIAG instead of BIDIAG (simulated mode)")
	measured := fs.Bool("measured", false, "trace a real execution instead of the simulator")
	m := fs.Int("m", 1024, "matrix rows (measured mode)")
	n := fs.Int("n", 512, "matrix columns (measured mode)")
	nb := fs.Int("nb", 64, "tile size (measured mode)")
	clusterFile := fs.String("cluster", "", "render this gathered multi-rank trace file (the ?format=raw document of /debug/trace/{id}) instead of tracing locally")
	out := fs.String("o", "schedule.json", "output file")
	fs.Parse(args)

	if *clusterFile != "" {
		return runCluster(*clusterFile, *out, stdout)
	}
	tree, err := trees.ParseKind(*treeName)
	if err != nil {
		return err
	}
	if *measured {
		return runMeasured(tree, *m, *n, *nb, *workers, *out, stdout)
	}

	if *p < *q {
		return errors.New("need p ≥ q")
	}
	g := sched.NewGraph()
	cfg := core.Config{Tree: tree, Cores: *workers}
	sh := core.ShapeOf(*p, *q, 1)
	if *rbidiag {
		core.BuildRBidiag(g, sh, nil, cfg)
	} else {
		core.BuildBidiag(g, sh, nil, cfg)
	}
	res, events := g.SimulateFixedTrace(*workers, sched.WeightTime, time.Millisecond)
	if err := writeTrace(*out, cluster.LocalTrace(*workers, events, 0)); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d tasks, makespan %.0f units, utilization %.0f%% → %s (simulated)\n",
		res.Tasks, res.Makespan, res.Utilization*100, *out)
	return nil
}

// runMeasured factorizes a real matrix with tracing on and renders the
// measured timeline.
func runMeasured(tree trees.Kind, m, n, nb, workers int, out string, stdout io.Writer) error {
	if m < n {
		return errors.New("need m ≥ n")
	}
	rep, events, err := experiments.ReconcileRun(tree, m, n, nb, workers)
	if err != nil {
		return err
	}
	if err := writeTrace(out, cluster.LocalTrace(workers, events, rep.Dropped)); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d tasks on %d workers, wall %.1f ms (predicted %.1f ms, ratio %.2f), utilization %.0f%%, %.2f GFLOP/s → %s (measured)\n",
		rep.TracedTasks, rep.Workers,
		rep.WallSeconds*1e3, rep.PredictedWallSeconds*1e3, rep.MakespanRatio,
		rep.UtilizationPct, rep.MeasuredGFlops, out)
	return nil
}

// runCluster re-renders a gathered multi-rank trace (a MergedTrace JSON
// document saved from the cluster head) as Chrome tracing JSON.
func runCluster(in, out string, stdout io.Writer) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	mt, err := cluster.ParseMergedTrace(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", in, err)
	}
	if err := writeTrace(out, mt); err != nil {
		return err
	}
	tasks, comms := 0, 0
	for _, ev := range mt.Events {
		if ev.Op == obs.OpTask {
			tasks++
		} else {
			comms++
		}
	}
	fmt.Fprintf(stdout, "%d ranks (grid %s, %d workers/rank), %d task + %d comm events, %d dropped → %s (cluster)\n",
		mt.Ranks, mt.Grid, mt.WPN, tasks, comms, mt.DroppedTotal(), out)
	return nil
}

// writeTrace renders mt as Chrome tracing JSON into path.
func writeTrace(path string, mt *cluster.MergedTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = mt.WriteChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
