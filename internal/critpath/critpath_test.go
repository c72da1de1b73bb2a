package critpath

import (
	"github.com/tiled-la/bidiag/internal/band"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/trees"
)

// The central validation of Section IV: the DAG-measured critical paths of
// the BIDIAG algorithms must equal the paper's formulas exactly, for every
// tree and a grid of shapes.
func TestBidiagDAGMatchesFormulas(t *testing.T) {
	for _, tree := range []trees.Kind{trees.FlatTS, trees.FlatTT, trees.Greedy} {
		for q := 1; q <= 10; q++ {
			for p := q; p <= 14; p++ {
				want := BidiagFormula(tree, p, q)
				got := MeasureBidiag(tree, p, q)
				if got != want {
					t.Errorf("%v p=%d q=%d: DAG cp %v, formula %v", tree, p, q, got, want)
				}
			}
		}
	}
}

func TestBidiagFlatTSClosedForm(t *testing.T) {
	for q := 1; q <= 20; q++ {
		for p := q; p <= 25; p++ {
			if BidiagFormula(trees.FlatTS, p, q) != BidiagFlatTSClosed(p, q) {
				t.Fatalf("FlatTS closed form mismatch at p=%d q=%d", p, q)
			}
		}
	}
}

func TestBidiagFlatTTClosedForm(t *testing.T) {
	for q := 1; q <= 20; q++ {
		for p := q; p <= 25; p++ {
			if BidiagFormula(trees.FlatTT, p, q) != BidiagFlatTTClosed(p, q) {
				t.Fatalf("FlatTT closed form mismatch at p=%d q=%d", p, q)
			}
		}
	}
}

func TestBidiagGreedyClosedFormsPow2(t *testing.T) {
	for _, q := range []int{2, 4, 8, 16, 32, 64} {
		if got, want := BidiagFormula(trees.Greedy, q, q), BidiagGreedySquarePow2Closed(q); got != want {
			t.Errorf("Greedy square q=%d: formula %v, closed %v", q, got, want)
		}
	}
	for _, pq := range [][2]int{{4, 2}, {8, 2}, {8, 4}, {16, 4}, {32, 8}, {64, 16}, {128, 32}} {
		p, q := pq[0], pq[1]
		if got, want := BidiagFormula(trees.Greedy, p, q), BidiagGreedyPow2Closed(p, q); got != want {
			t.Errorf("Greedy p=%d q=%d: formula %v, closed %v", p, q, got, want)
		}
	}
}

// Property test over random shapes: formulas and DAG agree.
func TestFormulaDAGAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := 1 + rng.Intn(8)
		p := q + rng.Intn(10)
		tree := []trees.Kind{trees.FlatTS, trees.FlatTT, trees.Greedy}[rng.Intn(3)]
		return MeasureBidiag(tree, p, q) == BidiagFormula(tree, p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStepFormulasSmall(t *testing.T) {
	// Hand-checked values.
	if StepQR(trees.FlatTS, 1, 1) != 4 || StepQR(trees.FlatTS, 1, 5) != 10 {
		t.Fatalf("single-row step wrong")
	}
	if StepQR(trees.FlatTS, 4, 1) != 4+18 || StepQR(trees.FlatTS, 4, 3) != 10+36 {
		t.Fatalf("FlatTS step wrong")
	}
	if StepQR(trees.FlatTT, 4, 3) != 10+18 || StepQR(trees.Greedy, 4, 3) != 10+12 {
		t.Fatalf("TT/Greedy step wrong")
	}
	if StepLQ(trees.Greedy, 3, 4) != StepQR(trees.Greedy, 4, 3) {
		t.Fatalf("LQ duality wrong")
	}
}

func TestGreedyBeatsFlatAsymptotically(t *testing.T) {
	// Θ(q log p) vs Θ(pq): at p = q = 32 greedy must already win by a lot.
	g := BidiagFormula(trees.Greedy, 32, 32)
	fts := BidiagFormula(trees.FlatTS, 32, 32)
	ftt := BidiagFormula(trees.FlatTT, 32, 32)
	if g >= ftt || ftt >= fts {
		t.Fatalf("expected Greedy < FlatTT < FlatTS, got %v %v %v", g, ftt, fts)
	}
	if fts/g < 4 {
		t.Fatalf("greedy should be ≫ faster at 32×32, ratio %v", fts/g)
	}
}

func TestRBidiagOverlapOnlyHelps(t *testing.T) {
	for _, tree := range []trees.Kind{trees.FlatTS, trees.FlatTT, trees.Greedy} {
		for _, pq := range [][2]int{{8, 4}, {16, 4}, {24, 6}, {12, 12}} {
			p, q := pq[0], pq[1]
			dag := MeasureRBidiag(tree, p, q)
			sum := RBidiagNoOverlap(tree, p, q)
			if dag > sum+1e-9 {
				t.Errorf("%v p=%d q=%d: DAG cp %v exceeds no-overlap sum %v", tree, p, q, dag, sum)
			}
		}
	}
}

func TestRBidiagWinsTallSkinny(t *testing.T) {
	// For very elongated matrices R-BIDIAG must have the shorter path.
	q := 4
	p := 10 * q
	for _, tree := range []trees.Kind{trees.FlatTS, trees.FlatTT, trees.Greedy} {
		b := MeasureBidiag(tree, p, q)
		r := MeasureRBidiag(tree, p, q)
		if r >= b {
			t.Errorf("%v: tall-skinny R-BIDIAG (%v) not faster than BIDIAG (%v)", tree, r, b)
		}
	}
}

func TestBidiagWinsSquare(t *testing.T) {
	// For square matrices BIDIAG must have the shorter path (Section IV.C).
	for _, tree := range []trees.Kind{trees.FlatTS, trees.FlatTT, trees.Greedy} {
		b := MeasureBidiag(tree, 12, 12)
		r := MeasureRBidiag(tree, 12, 12)
		if b >= r {
			t.Errorf("%v: square BIDIAG (%v) not faster than R-BIDIAG (%v)", tree, b, r)
		}
	}
}

func TestCrossoverRange(t *testing.T) {
	// Section IV.C: δs oscillates between 5 and 8 for GREEDY under the
	// paper's no-overlap accounting. The DAG measurement overlaps the QR
	// phase into the bidiagonalization, pulling δs down for small q, so
	// accept [2, 9] and check the value settles toward the paper's band
	// as q grows.
	last := 0.0
	for _, q := range []int{4, 6, 8, 12, 16, 24} {
		delta, _, ok := Crossover(trees.Greedy, q, 16)
		if !ok {
			t.Fatalf("q=%d: no crossover found", q)
		}
		if delta < 2 || delta > 9 {
			t.Errorf("q=%d: δs = %v outside plausible range", q, delta)
		}
		last = delta
	}
	if last < 4.5 || last > 9 {
		t.Errorf("δs at q=24 should approach the paper's [5,8] band, got %v", last)
	}
}

func TestRBidiagNoOverlapCrossoverExists(t *testing.T) {
	for _, q := range []int{4, 8, 12} {
		delta, _, ok := CrossoverNoOverlap(trees.Greedy, q, 16)
		if !ok {
			t.Fatalf("q=%d: no formula crossover found", q)
		}
		if delta < 2 || delta > 12 {
			t.Errorf("q=%d: formula δs = %v implausible", q, delta)
		}
	}
}

func TestGreedyAsymptoticRatioEq1(t *testing.T) {
	// Equation (1): the ratio tends to 1. Convergence is logarithmic, so
	// assert closeness at moderate q and improvement as q grows.
	for _, alpha := range []float64{0, 0.25, 0.5} {
		r256 := GreedyAsymptoticRatio(alpha, 1, 256)
		r4096 := GreedyAsymptoticRatio(alpha, 1, 4096)
		if math.Abs(r4096-1) > 0.35 {
			t.Errorf("α=%v: ratio at q=4096 is %v, too far from 1", alpha, r4096)
		}
		if math.Abs(r4096-1) > math.Abs(r256-1)+1e-9 {
			t.Errorf("α=%v: ratio not converging (%v → %v)", alpha, r256, r4096)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for u, want := range cases {
		if got := Log2Ceil(u); got != want {
			t.Fatalf("Log2Ceil(%d) = %d, want %d", u, got, want)
		}
	}
}

// The pipelined greedy QR order must beat the per-panel binomial order on
// multi-panel factorizations — the property that makes R-BIDIAG
// competitive (its QR phase pipelines, unlike BIDIAG's steps).
func TestPipelinedQRBeatsPerPanelBinomial(t *testing.T) {
	for _, pq := range [][2]int{{32, 4}, {64, 8}, {128, 4}} {
		p, q := pq[0], pq[1]
		pipelined := MeasureQR(trees.Greedy, p, q)

		// Per-panel binomial via an explicit QRTree override.
		g := schedGraph()
		core.BuildQR(g, core.ShapeOf(p, q, 1), nil, core.Config{
			Tree: trees.Greedy,
			QRTree: func(k int, rows []int, v int) []trees.Op {
				return trees.Binomial(rows)
			},
		})
		binomial := g.CriticalPath(sched.WeightTime)
		if pipelined >= binomial {
			t.Errorf("p=%d q=%d: pipelined %v not better than per-panel binomial %v",
				p, q, pipelined, binomial)
		}
	}
}

func schedGraph() *sched.Graph { return sched.NewGraph() }

// The BND2BD DAG must expose real parallelism where the sweeps are long
// enough to pipeline (the derived granularity cuts them into short steps
// from n ≈ 2000 on), and none where they are not or where one step spans
// the band: the caravans then chain, so the critical path equals the
// total work. The work itself is the closed-form flop model whatever the
// cut.
func TestMeasureBND2BD(t *testing.T) {
	cp, work := MeasureBND2BD(4096, 64, 0)
	if cp <= 0 || work <= 0 || cp > work*(1+1e-12) {
		t.Fatalf("degenerate measurement: cp=%g work=%g", cp, work)
	}
	if par := work / cp; par < 4 {
		t.Errorf("pipelined BND2BD parallelism %.2f < 4 (cp=%g work=%g)", par, cp, work)
	}
	if work != band.ModelFlops(4096, 64) {
		t.Errorf("graph work %g differs from the flop model %g", work, band.ModelFlops(4096, 64))
	}

	for _, window := range []int{0, 4096} {
		cpSer, workSer := MeasureBND2BD(256, 8, window)
		if d := math.Abs(cpSer - workSer); d > 1e-9*workSer {
			t.Errorf("window %d on a short band must serialize: cp=%g work=%g", window, cpSer, workSer)
		}
	}

	_, workCut := MeasureBND2BD(4096, 64, 128)
	if workCut != work {
		t.Errorf("model work depends on the cut: %g vs %g", workCut, work)
	}
}

// TestMeasurePipeline pins the fused-pipeline critical-path property of
// the cross-stage fusion: never longer than the per-stage sum (up to the
// rounding of two summation orders), and strictly shorter wherever the
// chase is cut into steps short enough to start before stage 1 ends — an
// explicit cut width on small shapes, the derived granularity on bands
// long enough to pipeline — across every tree, square and tall. Short
// bands under the derived granularity chase in whole-sweep steps, which
// need the band end and so start when stage 1 is over.
func TestMeasurePipeline(t *testing.T) {
	shapes := []struct {
		m, n, nb, window int
	}{
		{256, 256, 32, 0},
		{256, 256, 32, 48},
		{320, 320, 64, 64},
		{512, 128, 32, 0},
		{2048, 2048, 128, 256},
	}
	for _, tree := range []trees.Kind{trees.FlatTS, trees.FlatTT, trees.Greedy} {
		for _, s := range shapes {
			fused, s1, s2 := MeasurePipeline(tree, s.m, s.n, s.nb, s.window)
			if fused <= 0 || s1 <= 0 || s2 <= 0 {
				t.Fatalf("%v %dx%d: degenerate paths %v %v %v", tree, s.m, s.n, fused, s1, s2)
			}
			if fused > (s1+s2)*(1+1e-12) {
				t.Errorf("%v %dx%d nb=%d w=%d: fused cp %v exceeds staged sum %v",
					tree, s.m, s.n, s.nb, s.window, fused, s1+s2)
			}
			if s.m == s.n && s.window > 0 && fused >= s1+s2 {
				t.Errorf("%v %dx%d nb=%d w=%d: square fused cp %v not strictly below %v",
					tree, s.m, s.n, s.nb, s.window, fused, s1+s2)
			}
			if fused < s1 || fused < s2 {
				t.Errorf("%v %dx%d: fused cp %v below a single stage (%v, %v)",
					tree, s.m, s.n, fused, s1, s2)
			}
		}
	}
}
