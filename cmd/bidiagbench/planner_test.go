package main

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/internal/plan"
)

func randomDense(t *testing.T, m, n int) *bidiag.Dense {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	a := bidiag.NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	return a
}

// TestPlannerPickNearSweepBest is the acceptance pin behind
// `bidiagbench -exp planner`: for three shapes (square, tall, small)
// the model's pick must land near the measured best of an exhaustive
// sweep over its own candidate set. The target is within 10% on a quiet
// dev box; the bound here is deliberately generous (2.5×) because CI
// machines are noisy, single-run timings of sub-50ms problems jitter,
// and the test must never flake on a correct planner. Each candidate's
// time is its best over five rounds that visit every candidate once, so
// a slow spell of the machine lands on all of them. A pick 2.5×
// slower than the sweep best means the model is genuinely wrong, not
// unlucky.
func TestPlannerPickNearSweepBest(t *testing.T) {
	if testing.Short() {
		t.Skip("real wall-clock sweep")
	}
	workers := runtime.GOMAXPROCS(0)
	shapes := [][2]int{{128, 128}, {192, 96}, {96, 96}}
	const bound = 2.5
	const rounds = 5 // interleaved: one call per candidate per round

	for _, s := range shapes {
		m, n := s[0], s[1]
		req := plan.Request{M: m, N: n, Workers: workers, Kind: plan.KindValues}
		pick, err := plan.ModelPick(req)
		if err != nil {
			t.Fatalf("%dx%d: ModelPick: %v", m, n, err)
		}
		a := randomDense(t, m, n)
		cands := plan.Enumerate(req)
		walls, err := measurePlans(a, cands, workers, rounds)
		if err != nil {
			t.Fatalf("%dx%d: %v", m, n, err)
		}
		pickT := 0.0
		bestT := 0.0
		for c, cfg := range cands {
			wall := walls[c]
			if bestT == 0 || wall < bestT {
				bestT = wall
			}
			if cfg == pick {
				pickT = wall
			}
		}
		if pickT == 0 {
			t.Fatalf("%dx%d: pick %s not in candidate set", m, n, pick)
		}
		t.Logf("%dx%d: pick [%s] %.1fms, best %.1fms, ratio %.2f",
			m, n, pick, pickT*1e3, bestT*1e3, pickT/bestT)
		if pickT > bound*bestT {
			t.Errorf("%dx%d: planner pick [%s] ran %.1fms, sweep best %.1fms — %.1fx over (bound %.1fx)",
				m, n, pick, pickT*1e3, bestT*1e3, pickT/bestT, bound)
		}
	}
}
