// Command bidiagbench regenerates the tables and figures of the paper's
// evaluation and takes the timed runs behind the BENCH_*.json records.
//
// Usage:
//
//	bidiagbench -exp fig2a              # one experiment
//	bidiagbench -exp all -scale small   # everything, laptop sizes
//	bidiagbench -m 1024 -n 1024 -nb 64 -workers 1   # one timed GE2BND, GFLOP/s
//	bidiagbench -m 4096 -n 1024 -json BENCH_ge2bnd.json
//	bidiagbench -stage bnd2bd -n 4096 -ku 64 -workers 8 -json BENCH_bnd2bd.json
//	bidiagbench -stage full -m 1024 -nb 64 -workers 2 -json BENCH_full_1024.json
//	bidiagbench -stage apply -nb 64 -reps 9 -json BENCH_kernels_apply.json
//	bidiagbench -stage sched -reps 5 -json BENCH_sched.json
//	bidiagbench -stage svd -n 1024 -nb 64 -workers 2 -json BENCH_svd_1024.json
//	bidiagbench -list
//
// Experiments (-exp, a comma-separated list or all): table1,
// fig2a..fig2f, fig3a..fig3f, fig4a..fig4f, critpaths, crossover,
// asymptotics and accuracy print an aligned table and write a CSV next to
// it into -out. Three run on the real machine instead of in virtual
// time: reconcile (traced pool runs against the simulated makespan),
// planner (the plan model's pick raced against an exhaustive real sweep
// of its own candidate set; regret per shape lands in planner.json) and
// commcal (traced 2-rank cluster jobs over loopback TCP, fitting the α-β
// communication model; the record is BENCH_cluster_2rank.json).
//
// Any timed-run flag (-m/-n/-nb/-ku/-stage/-workers/-reps/-json) selects
// one timed run of -stage (ge2bnd by default), best of -reps kept; -json
// writes the machine-readable record, the format the BENCH_*.json
// performance trajectory is tracked in. A zero -m takes the stage's
// default size and a zero -n takes -m. The stages:
//
//   - ge2bnd: one real GE2BND, rated against the paper's flop count, with
//     one extra traced rep reconciled against the flop model.
//   - bnd2bd: the second stage, an n×n band of bandwidth -ku reduced to
//     bidiagonal form on the task runtime (and, for comparison, by
//     band.Reduce with no graph), rated against the data-independent
//     Householder flop model.
//   - full: the end-to-end values pipeline (bidiag.SingularValues):
//     GE2BND, the BND2BD chase and the dqds bidiagonal solve, rated
//     against the sum of the GE2BND flop count and the BND2BD flop model.
//   - svd: bidiag.SVD on a random n×n matrix; the record carries the wall
//     time, the seconds of each stage of the vector path (taken by running
//     the same stages one by one), the ratio to bidiag.SingularValues on
//     the same input, and the residual and orthogonality of the result in
//     units of n·ε.
//   - apply: the twelve stage-1 tile kernels in isolation (the six factor
//     kernels GEQRT … TTLQT and the six applies UNMQR … TTMLQ at tile size
//     -nb): each is rated in GFLOP/s — a factor kernel with its input
//     restored while the clock is stopped — and recorded in the kernels
//     array of the record, which cmd/benchguard gates entry by entry.
//   - sched: the shared-memory worker loop itself, graphs of 100 000
//     no-op tasks, independent and chained, at 1, 2 and 4 workers, through
//     RunParallel and through one long-lived sched.Runtime, each rated in
//     ns per task in the sched array of the record, which benchguard gates
//     case by case.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/baseline"
	"github.com/tiled-la/bidiag/internal/bdsqr"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/critpath"
	"github.com/tiled-la/bidiag/internal/experiments"
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/machine"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
	"github.com/tiled-la/bidiag/internal/trees"
)

// experiment is one -exp entry: it runs at scale sc and writes its files
// (a CSV per table, and the record of planner and commcal) into out.
type experiment func(sc experiments.Scale, out string) error

func single(f func(experiments.Scale) *experiments.Table) experiment {
	return func(sc experiments.Scale, out string) error { return writeTables(out, f(sc)) }
}

func pair(f func(experiments.Scale) (*experiments.Table, *experiments.Table)) experiment {
	return func(sc experiments.Scale, out string) error {
		a, b := f(sc)
		return writeTables(out, a, b)
	}
}

var experimentsByName = map[string]experiment{
	"table1":      single(experiments.Table1),
	"fig2a":       single(experiments.Fig2a),
	"fig2b":       single(experiments.Fig2b),
	"fig2c":       single(experiments.Fig2c),
	"fig2d":       single(experiments.Fig2d),
	"fig2e":       single(experiments.Fig2e),
	"fig2f":       single(experiments.Fig2f),
	"fig3a":       single(experiments.Fig3a),
	"fig3b":       single(experiments.Fig3b),
	"fig3c":       single(experiments.Fig3c),
	"fig3d":       single(experiments.Fig3d),
	"fig3e":       single(experiments.Fig3e),
	"fig3f":       single(experiments.Fig3f),
	"fig4a":       single(experiments.Fig4a),
	"fig4bc":      pair(experiments.Fig4bc),
	"fig4d":       single(experiments.Fig4d),
	"fig4ef":      pair(experiments.Fig4ef),
	"critpaths":   single(experiments.CriticalPaths),
	"crossover":   single(experiments.Crossover),
	"asymptotics": single(experiments.Asymptotics),
	"accuracy":    single(experiments.Accuracy),
	"reconcile": func(sc experiments.Scale, out string) error {
		t, err := experiments.Reconcile(sc, runtime.GOMAXPROCS(0))
		if err != nil {
			return err
		}
		return writeTables(out, t)
	},
	"planner": runPlannerEval,
	"commcal": runCommCal,
}

// writeTables prints each table and writes it as <out>/<name>.csv.
func writeTables(out string, tables ...*experiments.Table) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Println(t.Text())
		path := filepath.Join(out, t.Name+".csv")
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// perfArgs are the timed-run flags, with -m and -n resolved to the
// stage's shape.
type perfArgs struct {
	m, n, nb, ku, workers, reps int
	json                        string
}

// stage is one -stage entry: the size a zero -m defaults to and the
// timed run.
type stage struct {
	side int
	run  func(perfArgs) error
}

var stages = map[string]stage{
	"ge2bnd": {1024, func(p perfArgs) error { return runPerf(p.m, p.n, p.nb, p.workers, p.reps, p.json) }},
	"bnd2bd": {4096, func(p perfArgs) error { return runPerfBND2BD(p.n, p.ku, p.workers, p.reps, p.json) }},
	"full":   {1024, func(p perfArgs) error { return runPerfFull(p.m, p.n, p.nb, p.workers, p.reps, p.json) }},
	"svd":    {1024, func(p perfArgs) error { return runPerfSVD(p.n, p.nb, p.workers, p.reps, p.json) }},
	"apply":  {0, func(p perfArgs) error { return runPerfApply(p.nb, p.reps, p.json) }},
	"sched":  {0, func(p perfArgs) error { return runPerfSched(p.reps, p.json) }},
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// currentSchema versions the machine-readable benchmark records
// (BENCH_*.json, planner.json). Bump it when fields change meaning;
// cmd/benchguard warns when a committed reference predates it.
// Schema 3 adds the kernels array of per-kernel apply rates
// (-stage apply records).
const currentSchema = 3

// perfResult is the machine-readable record of one timed GE2BND run, the
// schema of the BENCH_*.json performance-trajectory files.
type perfResult struct {
	Experiment  string  `json:"experiment"`
	Schema      int     `json:"schema,omitempty"`
	M           int     `json:"m"`
	N           int     `json:"n"`
	NB          int     `json:"nb,omitempty"`
	KU          int     `json:"ku,omitempty"` // band width of a bnd2bd run
	Workers     int     `json:"workers"`
	Tree        string  `json:"tree,omitempty"`
	Algorithm   string  `json:"algorithm,omitempty"`
	Tasks       int     `json:"tasks"`
	Reps        int     `json:"reps"`
	WallSeconds float64 `json:"wall_seconds"` // best of Reps
	GFlops      float64 `json:"gflops,omitempty"`

	// Graph-vs-no-graph figures of a -stage bnd2bd run; zero otherwise.
	// BuildSeconds is the graph construction inside WallSeconds,
	// SeqSeconds the same reduction by band.Reduce (one thread, no
	// graph), UsPerTask the mean work per task (SeqSeconds / Tasks).
	BuildSeconds float64 `json:"build_seconds,omitempty"`
	SeqSeconds   float64 `json:"seq_seconds,omitempty"`
	UsPerTask    float64 `json:"us_per_task,omitempty"`

	// The process grid of a commcal cluster record; zero otherwise.
	Nodes    int `json:"nodes,omitempty"`
	GridRows int `json:"grid_rows,omitempty"`
	GridCols int `json:"grid_cols,omitempty"`

	// Figures of a -stage svd run; zero otherwise. Stages holds the
	// seconds of each stage of the vector path run one by one,
	// ValuesSeconds the best bidiag.SingularValues time on the same
	// input and ValuesRatio = WallSeconds / ValuesSeconds; the last three
	// are ‖A−UΣVᵀ‖_F/‖A‖_F, max|UᵀU−I| and max|VᵀV−I| in units of n·ε.
	Stages        *svdStages `json:"stages,omitempty"`
	ValuesSeconds float64    `json:"values_seconds,omitempty"`
	ValuesRatio   float64    `json:"values_ratio,omitempty"`
	ResidualEps   float64    `json:"residual_eps,omitempty"`
	OrthUEps      float64    `json:"orth_u_eps,omitempty"`
	OrthVEps      float64    `json:"orth_v_eps,omitempty"`

	// Kernels are the per-kernel rates of a -stage apply run; nil for
	// every other stage. benchguard compares entries by name.
	Kernels []kernelRate `json:"kernels,omitempty"`

	// Sched are the per-case dispatch costs of a -stage sched run and
	// TasksPerSec their aggregate, the record's guarded rate; zero for
	// every other stage. benchguard compares entries by case.
	Sched       []schedCost `json:"sched,omitempty"`
	TasksPerSec float64     `json:"tasks_per_sec,omitempty"`

	// Reconcile is the model-vs-measured report of one extra traced rep
	// (shared-memory ge2bnd runs only): the simulated makespan of the
	// same DAG converted to seconds at the measured kernel rate, next to
	// the traced wall clock and per-kind GFLOP/s. Informational — the
	// regression comparison (cmd/benchguard) ignores it.
	Reconcile *critpath.ReconcileReport `json:"reconcile,omitempty"`

	// CommFit and CommReconcile carry the measured α-β communication
	// model of an -exp commcal run (traced cluster jobs on a loopback-TCP
	// mesh) and its measured-vs-modeled wire-time reconcile. Like
	// Reconcile, they are diagnostic: benchguard accepts the schema but
	// never compares them.
	CommFit       *machine.CommFit     `json:"comm_fit,omitempty"`
	CommReconcile *critpath.CommReport `json:"comm_reconcile,omitempty"`
}

// runPerf executes one real GE2BND (reps times, best wall time kept),
// prints the human-readable line, and optionally writes the JSON record.
func runPerf(m, n, nb, workers, reps int, jsonPath string) error {
	if reps < 1 {
		reps = 1
	}
	rng := rand.New(rand.NewSource(42))
	rows, cols := m, n
	if rows < cols {
		rows, cols = cols, rows // GE2BND transposes internally; flops follow
	}
	a := bidiag.NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	opts := &bidiag.Options{NB: nb, Workers: workers, Algorithm: bidiag.Bidiag}
	res := perfResult{
		Experiment: "ge2bnd", M: m, N: n, NB: nb, Workers: workers,
		Tree: opts.Tree.String(), Algorithm: opts.Algorithm.String(), Reps: reps,
	}
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		band, err := bidiag.GE2BND(a, opts)
		wall := time.Since(start)
		if err != nil {
			return err
		}
		if wall < best {
			best = wall
		}
		res.Tasks = band.TasksExecuted
	}
	flops := baseline.PaperFlops(rows, cols)
	res.WallSeconds = best.Seconds()
	res.GFlops = flops / 1e9 / res.WallSeconds
	// One extra traced rep, after the timed ones so the ring buffers never
	// taint the wall figures, reconciles the run against the flop model
	// (trees.Auto matches the public API's default tree).
	rep, _, err := experiments.ReconcileRun(trees.Auto, rows, cols, nb, workers)
	if err != nil {
		return err
	}
	res.Reconcile = rep
	fmt.Printf("reconcile: measured %.3fs vs predicted %.3fs (ratio %.2f)  util %.1f%%  %.2f GFLOP/s traced\n",
		rep.WallSeconds, rep.PredictedWallSeconds, rep.MakespanRatio,
		rep.UtilizationPct, rep.MeasuredGFlops)
	fmt.Printf("GE2BND %dx%d nb=%d workers=%d: %.3fs  %.2f GFLOP/s  (%d tasks, best of %d)\n",
		m, n, nb, workers, res.WallSeconds, res.GFlops, res.Tasks, reps)
	return writeResult(res, jsonPath)
}

// runCommCal runs the communication calibration (traced 2-rank cluster
// jobs over loopback TCP), prints the per-link fit table, and writes
// both the CSV and the machine-readable cluster record
// (BENCH_cluster_2rank.json) into outDir. The record's headline rate is
// the largest traced job's GFLOP/s — a real 2-rank wall-clock figure —
// so benchguard's schema check accepts it; the fit and reconcile ride
// along as diagnostic fields it never compares.
func runCommCal(sc experiments.Scale, outDir string) error {
	res, tbl, err := experiments.CommCal(sc)
	if err != nil {
		return err
	}
	if err := writeTables(outDir, tbl); err != nil {
		return err
	}

	fit := res.Fit
	rec := perfResult{
		Experiment: "cluster", M: res.LargestM, N: res.LargestN, NB: res.LargestNB,
		Workers: res.WPN, Reps: 1, Tree: "Hierarchical",
		Nodes: res.GridRows * res.GridCols, GridRows: res.GridRows, GridCols: res.GridCols,
		WallSeconds:   res.LargestWall,
		GFlops:        res.LargestFlops / 1e9 / res.LargestWall,
		CommFit:       &fit,
		CommReconcile: res.Reconcile,
	}
	fmt.Printf("commcal: pooled fit α %.1fµs β %.2f GB/s over %d samples; reconcile ratio %.2f (model ratio %.2f)\n",
		fit.AlphaSeconds*1e6, fit.BytesPerSecond/1e9, fit.Samples,
		res.Reconcile.Ratio, res.ModelReconcile.Ratio)
	return writeResult(rec, filepath.Join(outDir, "BENCH_cluster_2rank.json"))
}

// kernelRate is one entry of a -stage apply record: a single kernel's
// best measured rate. WallSeconds is the best seconds-per-call.
type kernelRate struct {
	Kernel      string  `json:"kernel"`
	GFlops      float64 `json:"gflops"`
	WallSeconds float64 `json:"wall_seconds"`
}

// schedCost is one entry of a -stage sched record: the best wall time per
// task of one graph shape on one worker count through one entry point.
type schedCost struct {
	Case      string  `json:"case"` // shape/entry/wN, e.g. chain/runtime/w4
	NsPerTask float64 `json:"ns_per_task"`
}

// schedTasks is the size of the -stage sched graphs: enough tasks that
// starting and winding down a pool vanish in the per-task figure.
const schedTasks = 100_000

// runPerfSched times the shared-memory worker loop on no-op tasks, so the
// figure is dispatch cost alone: independent tasks time the ready-queue
// hand-off, a dependent chain times the path from a completion to its
// successor starting. "run" pays for a pool per graph (RunParallel),
// "runtime" submits to one that stays up, as the serving layer does.
func runPerfSched(reps int, jsonPath string) error {
	if reps < 1 {
		reps = 1
	}
	noop := func(*nla.Workspace) {}
	build := func(chain bool) *sched.Graph {
		g := sched.NewGraph()
		h := g.NewHandle(8, 0)
		for i := 0; i < schedTasks; i++ {
			if chain {
				g.AddTask(kernels.LACPYKind, 0, 1, 0, noop, sched.RW(h))
			} else {
				g.AddTask(kernels.LACPYKind, 0, 1, 0, noop)
			}
		}
		return g
	}
	workerCounts := []int{1, 2, 4}
	res := perfResult{Experiment: "sched", Workers: workerCounts[len(workerCounts)-1], Tasks: schedTasks, Reps: reps}
	var total time.Duration
	for _, shape := range []string{"empty", "chain"} {
		g := build(shape == "chain")
		for _, workers := range workerCounts {
			rt := sched.NewRuntime(workers)
			entries := []struct {
				name string
				run  func() error
			}{
				{"run", func() error { return g.RunParallel(workers) }},
				{"runtime", func() error {
					h, err := rt.Submit(context.Background(), g)
					if err != nil {
						return err
					}
					return h.Wait()
				}},
			}
			for _, e := range entries {
				best := time.Duration(1<<63 - 1)
				for r := 0; r < reps; r++ {
					start := time.Now()
					if err := e.run(); err != nil {
						rt.Close()
						return err
					}
					best = min(best, time.Since(start))
				}
				total += best
				c := schedCost{
					Case:      fmt.Sprintf("%s/%s/w%d", shape, e.name, workers),
					NsPerTask: float64(best.Nanoseconds()) / schedTasks,
				}
				res.Sched = append(res.Sched, c)
				fmt.Printf("  %-18s %7.1f ns/task\n", c.Case, c.NsPerTask)
			}
			rt.Close()
		}
	}
	res.WallSeconds = total.Seconds()
	res.TasksPerSec = float64(len(res.Sched)) * schedTasks / total.Seconds()
	fmt.Printf("sched: %d cases of %d tasks, %.2f Mtasks/s overall (best of %d)\n",
		len(res.Sched), schedTasks, res.TasksPerSec/1e6, reps)
	return writeResult(res, jsonPath)
}

// runPerfApply rates the twelve stage-1 tile kernels in isolation at
// tile size nb — the six factor kernels and the six applies — in the
// steady state the executors run them in (a warm workspace of exactly
// ScratchSize elements), best rate of reps kept per kernel. A rep times
// every kernel in turn, so a kernel's reps are spread over the whole run
// and a busy spell on a shared box cannot cover all of them. A factor
// kernel destroys its input, so its tiles are restored before every call
// with the clock stopped: only the kernel is timed. The record's
// top-level GFLOP/s is the flop-weighted aggregate — total flops over the
// summed best per-call times — so the headline figure moves only when
// the kernels themselves do.
func runPerfApply(nb, reps int, jsonPath string) error {
	if reps < 1 {
		reps = 1
	}
	cases := kernels.BenchCases(rand.New(rand.NewSource(42)), nb)
	wss := make([]*nla.Workspace, len(cases))
	best := make([]time.Duration, len(cases))
	for i, tc := range cases {
		wss[i] = nla.NewWorkspace(kernels.ScratchSize(tc.Kind, nb, nb, nb))
		tc.Invoke(wss[i]) // warm
		best[i] = time.Duration(1<<63 - 1)
	}
	// Enough iterations per rep that the timer resolution is noise.
	iters := func(tc kernels.BenchCase) int { return int(5e7/tc.Flops) + 1 }
	for r := 0; r < reps; r++ {
		for i, tc := range cases {
			var wall time.Duration
			for it := iters(tc); it > 0; it-- {
				if tc.Restore != nil {
					tc.Restore()
				}
				start := time.Now()
				tc.Run(wss[i])
				wall += time.Since(start)
			}
			best[i] = min(best[i], wall)
		}
	}

	res := perfResult{
		Experiment: "apply", M: nb, N: nb, NB: nb, Workers: 1, Reps: reps,
	}
	var totalFlops, totalSecs float64
	for i, tc := range cases {
		if wss[i].Grows() != 0 {
			return fmt.Errorf("%s: a workspace of ScratchSize elements grew", tc.Kind)
		}
		perCall := best[i].Seconds() / float64(iters(tc))
		kr := kernelRate{
			Kernel:      tc.Kind.String(),
			GFlops:      tc.Flops / 1e9 / perCall,
			WallSeconds: perCall,
		}
		res.Kernels = append(res.Kernels, kr)
		totalFlops += tc.Flops
		totalSecs += perCall
		fmt.Printf("%-6s nb=%d: %8.2f GFLOP/s  (%.1f µs/call, best of %d)\n",
			kr.Kernel, nb, kr.GFlops, 1e6*perCall, reps)
	}
	res.WallSeconds = totalSecs
	res.GFlops = totalFlops / 1e9 / totalSecs
	fmt.Printf("APPLY nb=%d: %.2f GFLOP/s aggregate over %d kernels\n",
		nb, res.GFlops, len(res.Kernels))
	return writeResult(res, jsonPath)
}

// writeResult prints and optionally persists one perf record.
func writeResult(res perfResult, jsonPath string) error {
	if jsonPath == "" {
		return nil
	}
	res.Schema = currentSchema
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if jsonPath == "-" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(jsonPath, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", jsonPath)
	return nil
}

// runPerfBND2BD times the second stage on a random n×n band of
// bandwidth ku (the shape GE2BND emits for nb = ku): graph build +
// execution on `workers` workers and, for comparison, band.Reduce with
// no graph on one thread, each best of reps, rated against the
// Householder flop model (band.ModelFlops) so the GFLOP/s figure is
// comparable across machines and commits.
func runPerfBND2BD(n, ku, workers, reps int, jsonPath string) error {
	if reps < 1 {
		reps = 1
	}
	rng := rand.New(rand.NewSource(42))
	b := bandRandom(rng, n, ku)
	res := perfResult{
		Experiment: "bnd2bd", M: n, N: n, KU: ku, Workers: workers, Reps: reps,
	}
	const never = time.Duration(1<<63 - 1)
	best, bestBuild, bestSeq := never, never, never
	for r := 0; r < reps; r++ {
		start := time.Now()
		g := sched.NewGraph()
		_, finish := band.BuildReduceGraph(g, b, 0)
		build := time.Since(start)
		var runErr error
		if workers > 1 {
			runErr = g.RunParallel(workers)
		} else {
			runErr = g.RunSequential()
		}
		if runErr != nil {
			return runErr
		}
		out := finish()
		wall := time.Since(start)
		if out.KU > 1 {
			return fmt.Errorf("bnd2bd: result not bidiagonal")
		}
		if wall < best {
			best, bestBuild = wall, build
		}
		res.Tasks = len(g.Tasks)

		start = time.Now()
		band.Reduce(b)
		bestSeq = min(bestSeq, time.Since(start))
	}
	res.WallSeconds = best.Seconds()
	res.BuildSeconds = bestBuild.Seconds()
	res.SeqSeconds = bestSeq.Seconds()
	res.GFlops = band.ModelFlops(n, ku) / 1e9 / res.WallSeconds
	if res.Tasks > 0 {
		res.UsPerTask = res.SeqSeconds * 1e6 / float64(res.Tasks)
	}
	fmt.Printf("BND2BD n=%d ku=%d workers=%d: %.3fs  %.2f GFLOP/s  (%d tasks of %.0f µs, build %.4fs, no graph %.3fs, best of %d)\n",
		n, ku, workers, res.WallSeconds, res.GFlops, res.Tasks, res.UsPerTask, res.BuildSeconds, res.SeqSeconds, reps)
	return writeResult(res, jsonPath)
}

// runPerfFull times the end-to-end singular value pipeline
// (GE2BND + BND2BD + BD2VAL) through the public API and rates it against
// the modeled flops of both reduction stages (the GE2BND operation count
// plus the BND2BD Householder model; the closing QR iteration rides
// along in the wall time as it does for every user).
func runPerfFull(m, n, nb, workers, reps int, jsonPath string) error {
	if reps < 1 {
		reps = 1
	}
	rng := rand.New(rand.NewSource(42))
	rows, cols := m, n
	if rows < cols {
		rows, cols = cols, rows // the pipeline transposes internally; flops follow
	}
	a := bidiag.NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	opts := &bidiag.Options{NB: nb, Workers: workers, Algorithm: bidiag.Bidiag}
	res := perfResult{
		Experiment: "full", M: m, N: n, NB: nb, Workers: workers,
		Tree: opts.Tree.String(), Algorithm: opts.Algorithm.String(),
		Reps: reps,
	}
	best := time.Duration(1<<63 - 1)
	var nsv int
	for r := 0; r < reps; r++ {
		start := time.Now()
		sv, err := bidiag.SingularValues(a, opts)
		wall := time.Since(start)
		if err != nil {
			return err
		}
		nsv = len(sv)
		if wall < best {
			best = wall
		}
	}
	if nsv != cols {
		return fmt.Errorf("full: got %d singular values, want %d", nsv, cols)
	}
	flops := baseline.PaperFlops(rows, cols) + band.ModelFlops(cols, nb)
	res.WallSeconds = best.Seconds()
	res.GFlops = flops / 1e9 / res.WallSeconds
	fmt.Printf("GE2VAL %dx%d nb=%d workers=%d: %.3fs  %.2f GFLOP/s  (best of %d)\n",
		m, n, nb, workers, res.WallSeconds, res.GFlops, reps)
	return writeResult(res, jsonPath)
}

// svdStages is the per-stage ledger of a -stage svd record, in seconds:
// the recording GE2BND graph (tiling and graph build included), band
// extraction, the logged BND2BD chase, forming Q₂ and P₂ from the log,
// the dqds call that gives S, the bidiagonal QR iteration with its
// rotations applied, and the recorded stage-1 reflectors applied to both
// factors.
type svdStages struct {
	GE2BNDRec    float64 `json:"ge2bnd_rec"`
	Extract      float64 `json:"extract"`
	BND2BDLogged float64 `json:"bnd2bd_logged"`
	FormQP       float64 `json:"form_qp"`
	BdsqrValues  float64 `json:"bdsqr_values"`
	BdsqrVectors float64 `json:"bdsqr_vectors"`
	BackApply    float64 `json:"back_apply"`
}

func (s svdStages) total() float64 {
	return s.GE2BNDRec + s.Extract + s.BND2BDLogged + s.FormQP + s.BdsqrValues + s.BdsqrVectors + s.BackApply
}

// svdStagesOnce runs the stages of bidiag.SVD one by one on the square
// matrix a, as svd.go composes them, and times each: like SVD, a pass
// starts one worker pool and runs every graph on it (all of them on the
// calling goroutine for one worker).
func svdStagesOnce(a *nla.Matrix, nb, workers int) (svdStages, error) {
	var st svdStages
	lap := func(dst *float64, start time.Time) time.Time {
		now := time.Now()
		*dst = now.Sub(start).Seconds()
		return now
	}
	t := time.Now()
	run := (*sched.Graph).RunSequential
	if workers > 1 {
		rt := sched.NewRuntime(workers)
		defer rt.Close()
		run = func(g *sched.Graph) error {
			_, err := pipeline.Shared{Runtime: rt}.Execute(context.Background(), g)
			return err
		}
	}
	rec := &core.Recorder{}
	plan := pipeline.Build(pipeline.Spec{
		Shape:  core.ShapeOf(a.Rows, a.Cols, nb),
		Data:   tile.FromDense(a, nb),
		Config: core.Config{Tree: trees.Auto, Gamma: 2, Cores: workers, Recorder: rec},
	})
	if err := run(plan.Graph); err != nil {
		return st, err
	}
	t = lap(&st.GE2BNDRec, t)
	b := plan.Tiles.ExtractBand(plan.Tiles.NB)
	t = lap(&st.Extract, t)
	bd, log := band.ReduceLogged(b)
	t = lap(&st.BND2BDLogged, t)
	q, p, err := core.FormQP(log, run)
	if err != nil {
		return st, err
	}
	t = lap(&st.FormQP, t)
	d, e := bd.Bidiagonal()
	// BidiagonalVectors makes this same dqds call for S; timed on its own
	// here, it is taken out of the vectors stage.
	if _, err := bdsqr.SingularValues(d, e); err != nil {
		return st, err
	}
	t = lap(&st.BdsqrValues, t)
	if _, err := core.BidiagonalVectors(d, e, q, p, run); err != nil {
		return st, err
	}
	t = lap(&st.BdsqrVectors, t)
	st.BdsqrVectors = max(st.BdsqrVectors-st.BdsqrValues, 0)
	if _, _, err := rec.ApplyBoth(q, p, run, workers <= 1); err != nil {
		return st, err
	}
	lap(&st.BackApply, t)
	return st, nil
}

// svdModelFlops is the data-independent flop model an SVD record's
// GFLOP/s is quoted against: GE2BND, the chase, 4n³ for Q₂ and P₂, 12n³
// for the rotations (two sweeps per singular value, 6 flops per rotated
// element, both sides) and 8n³ for the two back-transforms.
func svdModelFlops(n, nb int) float64 {
	n3 := float64(n) * float64(n) * float64(n)
	return baseline.PaperFlops(n, n) + band.ModelFlops(n, nb) + 24*n3
}

// runPerfSVD times bidiag.SVD on a random n×n matrix (best of reps) and,
// on the same input, bidiag.SingularValues and the stages of the vector
// path one by one (the ledger of the fastest staged pass is kept).
func runPerfSVD(n, nb, workers, reps int, jsonPath string) error {
	if reps < 1 {
		reps = 1
	}
	rng := rand.New(rand.NewSource(42))
	a := bidiag.NewDense(n, n)
	inner := nla.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			inner.Set(i, j, v)
		}
	}
	opts := &bidiag.Options{NB: nb, Workers: workers, Algorithm: bidiag.Bidiag}
	res := perfResult{
		Experiment: "svd", M: n, N: n, NB: nb, Workers: workers,
		Tree: opts.Tree.String(), Algorithm: opts.Algorithm.String(), Reps: reps,
	}
	const never = time.Duration(1<<63 - 1)
	best, bestValues := never, never
	var out *bidiag.SVDResult
	for r := 0; r < reps; r++ {
		start := time.Now()
		sv, err := bidiag.SVD(a, opts)
		if err != nil {
			return err
		}
		best, out = min(best, time.Since(start)), sv

		start = time.Now()
		if _, err := bidiag.SingularValues(a, opts); err != nil {
			return err
		}
		bestValues = min(bestValues, time.Since(start))

		st, err := svdStagesOnce(inner, nb, workers)
		if err != nil {
			return err
		}
		if res.Stages == nil || st.total() < res.Stages.total() {
			res.Stages = &st
		}
	}
	res.WallSeconds = best.Seconds()
	res.GFlops = svdModelFlops(n, nb) / 1e9 / res.WallSeconds
	res.ValuesSeconds = bestValues.Seconds()
	res.ValuesRatio = res.WallSeconds / res.ValuesSeconds

	// Accuracy of the last result, in n·ε.
	u, us, v := nla.NewMatrix(n, n), nla.NewMatrix(n, n), nla.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			u.Set(i, j, out.U.At(i, j))
			us.Set(i, j, out.U.At(i, j)*out.S[j])
			v.Set(i, j, out.V.At(i, j))
		}
	}
	resid := nla.MulABT(us, v)
	for i, x := range inner.Data {
		resid.Data[i] -= x
	}
	ne := float64(n) * 0x1p-52
	res.ResidualEps = resid.FrobeniusNorm() / inner.FrobeniusNorm() / ne
	res.OrthUEps = nla.OrthogonalityError(u) / ne
	res.OrthVEps = nla.OrthogonalityError(v) / ne

	st := res.Stages
	fmt.Printf("SVD %dx%d nb=%d workers=%d: %.3fs  %.2f GFLOP/s  = %.2f× SingularValues (%.3fs)  (best of %d)\n",
		n, n, nb, workers, res.WallSeconds, res.GFlops, res.ValuesRatio, res.ValuesSeconds, reps)
	fmt.Printf("stages: ge2bnd_rec %.4f  extract %.4f  bnd2bd_logged %.4f  form_qp %.4f  bdsqr_values %.4f  bdsqr_vectors %.4f  back_apply %.4f  (sum %.3fs)\n",
		st.GE2BNDRec, st.Extract, st.BND2BDLogged, st.FormQP, st.BdsqrValues, st.BdsqrVectors, st.BackApply, st.total())
	fmt.Printf("accuracy: residual %.2f  |UᵀU−I| %.2f  |VᵀV−I| %.2f  n·ε\n", res.ResidualEps, res.OrthUEps, res.OrthVEps)
	return writeResult(res, jsonPath)
}

// bandRandom fills an n×n band of bandwidth ku with uniform(-1, 1).
func bandRandom(rng *rand.Rand, n, ku int) *band.Matrix {
	b := band.New(n, ku)
	for i := 0; i < n; i++ {
		for j := i; j <= i+b.KU && j < n; j++ {
			b.Set(i, j, 2*rng.Float64()-1)
		}
	}
	return b
}

// usageError is a bad command line (exit status 2); any other error of
// run is a failed run (exit status 1).
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run is the command: one timed -stage run, or the -exp experiments.
func run(args []string) error {
	fs := flag.NewFlagSet("bidiagbench", flag.ExitOnError)
	exp := fs.String("exp", "", "experiment to run, a comma-separated list, or 'all'")
	scale := fs.String("scale", "full", "problem sizes: full (paper) or small (laptop)")
	out := fs.String("out", "experiments-out", "directory for CSV output")
	list := fs.Bool("list", false, "list experiments and exit")
	mFlag := fs.Int("m", 0, "rows for a one-shot timed GE2BND run (enables perf mode)")
	nFlag := fs.Int("n", 0, "columns for the timed run (default: m)")
	nbFlag := fs.Int("nb", 64, "tile size for the timed run")
	kuFlag := fs.Int("ku", 64, "band width for a -stage bnd2bd timed run")
	stageName := fs.String("stage", "ge2bnd", "timed-run stage: ge2bnd, bnd2bd, full (end-to-end values pipeline), svd (bidiag.SVD with its per-stage ledger), apply (isolated rates of the twelve stage-1 tile kernels), or sched (worker-loop dispatch cost)")
	workersFlag := fs.Int("workers", runtime.GOMAXPROCS(0), "workers for the timed run")
	repsFlag := fs.Int("reps", 3, "repetitions of the timed run (best kept)")
	jsonOut := fs.String("json", "", "write the timed-run result as JSON to this file ('-' for stdout)")
	fs.Parse(args)

	// Any timed-run flag selects perf mode, so none is silently ignored.
	perfMode := false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "m", "n", "nb", "ku", "stage", "workers", "reps", "json":
			perfMode = true
		}
	})
	if perfMode {
		if *exp != "" {
			return usagef("-exp and the timed-run flags (-m/-n/-nb/-ku/-stage/-workers/-reps/-json) are mutually exclusive")
		}
		st, ok := stages[*stageName]
		if !ok {
			return usagef("unknown -stage %q; want one of %s", *stageName, strings.Join(sortedKeys(stages), ", "))
		}
		p := perfArgs{m: *mFlag, n: *nFlag, nb: *nbFlag, ku: *kuFlag, workers: *workersFlag, reps: *repsFlag, json: *jsonOut}
		if p.m <= 0 {
			p.m = st.side
		}
		if p.n <= 0 {
			p.n = p.m
		}
		return st.run(p)
	}

	if *list || *exp == "" {
		fmt.Println("experiments:", strings.Join(sortedKeys(experimentsByName), " "))
		if *exp == "" && !*list {
			return usagef("bidiagbench: choose -exp or a timed-run flag")
		}
		return nil
	}

	selected := sortedKeys(experimentsByName)
	if *exp != "all" {
		selected = strings.Split(*exp, ",")
		for _, e := range selected {
			if _, ok := experimentsByName[e]; !ok {
				return usagef("unknown experiment %q; use -list", e)
			}
		}
	}
	sc := experiments.Scale{Small: *scale == "small"}
	for _, name := range selected {
		start := time.Now()
		if err := experimentsByName[name](sc, *out); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("(%s took %.1fs)\n\n", name, time.Since(start).Seconds())
	}
	return nil
}
