package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/internal/baseline"
	"github.com/tiled-la/bidiag/internal/plan"
)

// plannerRow is one shape's pick-vs-sweep comparison: the model's
// chosen configuration measured against every enumerated candidate,
// executed for real through the public API.
type plannerRow struct {
	M       int    `json:"m"`
	N       int    `json:"n"`
	Workers int    `json:"workers"`
	Pick    string `json:"pick"`
	Best    string `json:"best"`
	// PickSeconds/BestSeconds are best-of-reps wall times; GFlops rates
	// them against the paper's GE2BND operation count (identical for
	// every candidate of a shape, so the ranking matches wall time).
	PickSeconds float64 `json:"pick_seconds"`
	BestSeconds float64 `json:"best_seconds"`
	PickGFlops  float64 `json:"pick_gflops"`
	BestGFlops  float64 `json:"best_gflops"`
	// RegretPct is how much slower the pick ran than the sweep's best:
	// 100·(pick/best − 1). 0 means the model picked the measured winner.
	RegretPct  float64 `json:"regret_pct"`
	Candidates int     `json:"candidates"`
}

// plannerReport is the machine-readable planner.json record.
type plannerReport struct {
	Experiment   string       `json:"experiment"`
	Schema       int          `json:"schema"`
	Workers      int          `json:"workers"`
	Shapes       []plannerRow `json:"shapes"`
	MaxRegretPct float64      `json:"max_regret_pct"`
}

// plannerOptions lowers a planner configuration to public Options.
func plannerOptions(cfg plan.Config, workers int) (*bidiag.Options, error) {
	tree, err := bidiag.ParseTree(cfg.Tree.String())
	if err != nil {
		return nil, err
	}
	alg := bidiag.Bidiag
	if cfg.RBidiag {
		alg = bidiag.RBidiag
	}
	return &bidiag.Options{
		NB: cfg.NB, Tree: tree, Algorithm: alg,
		Workers: workers, BND2BDWindow: cfg.Window,
		Gemm: bidiag.GemmBlock(cfg.Gemm),
	}, nil
}

// measurePlan runs the full singular-value pipeline under one
// configuration and returns the best wall time of reps runs.
func measurePlan(a *bidiag.Dense, cfg plan.Config, workers, reps int) (float64, error) {
	opts, err := plannerOptions(cfg, workers)
	if err != nil {
		return 0, err
	}
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if _, err := bidiag.SingularValues(a, opts); err != nil {
			return 0, err
		}
		if wall := time.Since(start); wall < best {
			best = wall
		}
	}
	return best.Seconds(), nil
}

// runPlannerEval measures the planner against an exhaustive sweep: for
// each shape, every enumerated candidate (nb × tree × GEMM blocking ×
// algorithm) executes for real, and the model's pick is reported with
// its regret against the measured best. The report lands in
// <outDir>/planner.json.
func runPlannerEval(small bool, outDir string) error {
	workers := runtime.GOMAXPROCS(0)
	shapes := [][2]int{{512, 512}, {1024, 1024}, {2048, 512}}
	reps := 3
	if small {
		shapes = [][2]int{{256, 256}, {384, 192}}
		reps = 2
	}
	rng := rand.New(rand.NewSource(42))
	report := plannerReport{Experiment: "planner", Schema: currentSchema, Workers: workers}

	fmt.Printf("planner pick vs exhaustive sweep (workers=%d, best of %d)\n", workers, reps)
	for _, s := range shapes {
		m, n := s[0], s[1]
		req := plan.Request{M: m, N: n, Workers: workers, Kind: plan.KindValues}
		pick, err := plan.ModelPick(req)
		if err != nil {
			return err
		}
		cands := plan.Enumerate(req)

		a := bidiag.NewDense(m, n)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}

		bestT, pickT := 0.0, 0.0
		var bestCfg plan.Config
		for _, cfg := range cands {
			t, err := measurePlan(a, cfg, workers, reps)
			if err != nil {
				return err
			}
			if bestT == 0 || t < bestT {
				bestT, bestCfg = t, cfg
			}
			if cfg == pick {
				pickT = t
			}
		}
		if pickT == 0 {
			return fmt.Errorf("planner pick %s not in its own candidate set", pick)
		}
		flops := baseline.PaperFlops(max(m, n), min(m, n))
		row := plannerRow{
			M: m, N: n, Workers: workers,
			Pick: pick.String(), Best: bestCfg.String(),
			PickSeconds: pickT, BestSeconds: bestT,
			PickGFlops: flops / 1e9 / pickT, BestGFlops: flops / 1e9 / bestT,
			RegretPct:  100 * (pickT/bestT - 1),
			Candidates: len(cands),
		}
		report.Shapes = append(report.Shapes, row)
		if row.RegretPct > report.MaxRegretPct {
			report.MaxRegretPct = row.RegretPct
		}
		fmt.Printf("%5dx%-5d pick [%s] %.3fs (%.2f GF/s)  best [%s] %.3fs (%.2f GF/s)  regret %.1f%%  (%d candidates)\n",
			m, n, row.Pick, row.PickSeconds, row.PickGFlops,
			row.Best, row.BestSeconds, row.BestGFlops, row.RegretPct, row.Candidates)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "planner.json")
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
