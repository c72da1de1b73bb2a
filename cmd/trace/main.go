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
	"flag"
	"fmt"
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
	p := flag.Int("p", 16, "tile rows (simulated mode)")
	q := flag.Int("q", 8, "tile columns (simulated mode)")
	treeName := flag.String("tree", "Greedy", "tree: FlatTS|FlatTT|Greedy|Auto")
	workers := flag.Int("workers", 8, "virtual cores (simulated) or pool workers (measured)")
	rbidiag := flag.Bool("rbidiag", false, "use R-BIDIAG instead of BIDIAG (simulated mode)")
	measured := flag.Bool("measured", false, "trace a real execution instead of the simulator")
	m := flag.Int("m", 1024, "matrix rows (measured mode)")
	n := flag.Int("n", 512, "matrix columns (measured mode)")
	nb := flag.Int("nb", 64, "tile size (measured mode)")
	clusterFile := flag.String("cluster", "", "render this gathered multi-rank trace file (the ?format=raw document of /debug/trace/{id}) instead of tracing locally")
	out := flag.String("o", "schedule.json", "output file")
	flag.Parse()

	if *clusterFile != "" {
		runCluster(*clusterFile, *out)
		return
	}

	tree, err := trees.ParseKind(*treeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *measured {
		runMeasured(tree, *m, *n, *nb, *workers, *out)
		return
	}

	if *p < *q {
		fmt.Fprintln(os.Stderr, "need p ≥ q")
		os.Exit(2)
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

	writeTrace(*out, cluster.LocalTrace(*workers, events, 0))
	fmt.Printf("%d tasks, makespan %.0f units, utilization %.0f%% → %s (simulated)\n",
		res.Tasks, res.Makespan, res.Utilization*100, *out)
}

// runMeasured factorizes a real matrix with tracing on and renders the
// measured timeline.
func runMeasured(tree trees.Kind, m, n, nb, workers int, out string) {
	if m < n {
		fmt.Fprintln(os.Stderr, "need m ≥ n")
		os.Exit(2)
	}
	rep, events, err := experiments.ReconcileRun(tree, m, n, nb, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	writeTrace(out, cluster.LocalTrace(workers, events, rep.Dropped))
	fmt.Printf("%d tasks on %d workers, wall %.1f ms (predicted %.1f ms, ratio %.2f), utilization %.0f%%, %.2f GFLOP/s → %s (measured)\n",
		rep.TracedTasks, rep.Workers,
		rep.WallSeconds*1e3, rep.PredictedWallSeconds*1e3, rep.MakespanRatio,
		rep.UtilizationPct, rep.MeasuredGFlops, out)
}

// runCluster re-renders a gathered multi-rank trace (a MergedTrace JSON
// document saved from the cluster head) as Chrome tracing JSON.
func runCluster(in, out string) {
	f, err := os.Open(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mt, err := cluster.ParseMergedTrace(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", in, err)
		os.Exit(1)
	}
	writeTrace(out, mt)
	tasks, comms := 0, 0
	for _, ev := range mt.Events {
		if ev.Op == obs.OpTask {
			tasks++
		} else {
			comms++
		}
	}
	fmt.Printf("%d ranks (grid %s, %d workers/rank), %d task + %d comm events, %d dropped → %s (cluster)\n",
		mt.Ranks, mt.Grid, mt.WPN, tasks, comms, mt.DroppedTotal(), out)
}

// writeTrace renders mt as Chrome tracing JSON into path.
func writeTrace(path string, mt *cluster.MergedTrace) {
	f, err := os.Create(path)
	if err == nil {
		err = mt.WriteChrome(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
