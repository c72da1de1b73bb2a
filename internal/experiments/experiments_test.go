package experiments

import (
	"strconv"
	"strings"
	"testing"
)

var small = Scale{Small: true}

func parseCell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s[%d][%d] = %q not a number", tbl.Name, row, col, tbl.Rows[row][col])
	}
	return v
}

func checkShape(t *testing.T, tbl *Table) {
	t.Helper()
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s: no rows", tbl.Name)
	}
	for i, r := range tbl.Rows {
		if len(r) != len(tbl.Header) {
			t.Fatalf("%s: row %d has %d cells, header has %d", tbl.Name, i, len(r), len(tbl.Header))
		}
	}
}

func TestTable1(t *testing.T) {
	tbl := Table1(small)
	checkShape(t, tbl)
	// flops/unit must match the Table I weight column.
	for i := range tbl.Rows {
		w := parseCell(t, tbl, i, 1)
		fu := parseCell(t, tbl, i, 2)
		if diff := w - fu; diff > 0.05 || diff < -0.05 {
			t.Errorf("%s: flops/unit %v does not match Table I weight %v", tbl.Rows[i][0], fu, w)
		}
	}
	// All kernels must report finite positive rates, and the GEMM-shaped
	// TS update kernel must beat the TT update kernel — the efficiency
	// gap the paper's trees trade on (Section III.A).
	rate := map[string]float64{}
	for i, r := range tbl.Rows {
		v := parseCell(t, tbl, i, 3)
		if v <= 0 || v > 1e4 {
			t.Errorf("%s: implausible measured rate %v", r[0], v)
		}
		rate[r[0]] = v
	}
	if rate["TSMQR"] <= rate["TTMQR"] {
		t.Errorf("TS update kernel should outperform TT: TSMQR %v vs TTMQR %v",
			rate["TSMQR"], rate["TTMQR"])
	}
}

func TestFig2aShape(t *testing.T) {
	tbl := Fig2a(small)
	checkShape(t, tbl)
	// At the largest size, FlatTS must beat FlatTT (kernel efficiency
	// wins asymptotically), and Auto must be at least as good as both
	// flat trees.
	last := len(tbl.Rows) - 1
	fts := parseCell(t, tbl, last, 1)
	ftt := parseCell(t, tbl, last, 2)
	auto := parseCell(t, tbl, last, 4)
	if fts <= ftt {
		t.Errorf("large square: FlatTS (%v) should beat FlatTT (%v)", fts, ftt)
	}
	if auto < fts*0.95 {
		t.Errorf("Auto (%v) should be competitive with the best flat tree (%v)", auto, fts)
	}
	// At the smallest size, trees with more parallelism must beat FlatTS.
	fts0 := parseCell(t, tbl, 0, 1)
	greedy0 := parseCell(t, tbl, 0, 3)
	if greedy0 <= fts0 {
		t.Errorf("small square: Greedy (%v) should beat FlatTS (%v)", greedy0, fts0)
	}
}

func TestFig2bRBidiagWins(t *testing.T) {
	tbl := Fig2b(small)
	checkShape(t, tbl)
	// On the most elongated case, R-BIDIAG (any tree) must beat BIDIAG
	// (same tree) — the paper's "up to 1.8x" observation.
	last := len(tbl.Rows) - 1
	for c := 1; c <= 4; c++ {
		b := parseCell(t, tbl, last, c)
		r := parseCell(t, tbl, last, c+4)
		if r <= b {
			t.Errorf("tall-skinny col %s: R-BIDIAG (%v) should beat BIDIAG (%v)",
				tbl.Header[c], r, b)
		}
	}
}

func TestFig2cShape(t *testing.T) {
	checkShape(t, Fig2c(small))
}

func TestFig2dOursBeatsMemoryBound(t *testing.T) {
	tbl := Fig2d(small)
	checkShape(t, tbl)
	last := len(tbl.Rows) - 1
	ours := parseCell(t, tbl, last, 2)
	sca := parseCell(t, tbl, last, 5)
	if ours <= sca {
		t.Errorf("GE2VAL: this work (%v) should beat the one-stage ScaLAPACK model (%v)", ours, sca)
	}
}

func TestFig2eShape(t *testing.T) { checkShape(t, Fig2e(small)) }
func TestFig2fShape(t *testing.T) { checkShape(t, Fig2f(small)) }

func TestFig3aScales(t *testing.T) {
	tbl := Fig3a(small)
	checkShape(t, tbl)
	// GE2BND rate with AUTO must increase with node count.
	first := parseCell(t, tbl, 0, 5)
	last := parseCell(t, tbl, len(tbl.Rows)-1, 5)
	if last <= first {
		t.Errorf("AUTO should strong-scale: %v -> %v", first, last)
	}
}

func TestFig3bShape(t *testing.T) { checkShape(t, Fig3b(small)) }
func TestFig3cShape(t *testing.T) { checkShape(t, Fig3c(small)) }

func TestFig3dBoundDominates(t *testing.T) {
	tbl := Fig3d(small)
	checkShape(t, tbl)
	for i := range tbl.Rows {
		ours := parseCell(t, tbl, i, 1)
		bound := parseCell(t, tbl, i, 4)
		if ours > bound {
			t.Errorf("row %d: GE2VAL (%v) cannot beat the BND2VAL bound (%v)", i, ours, bound)
		}
	}
}

func TestFig3eShape(t *testing.T) { checkShape(t, Fig3e(small)) }
func TestFig3fShape(t *testing.T) { checkShape(t, Fig3f(small)) }

func TestFig4aShape(t *testing.T) { checkShape(t, Fig4a(small)) }

func TestFig4bcEfficiency(t *testing.T) {
	perf, eff := Fig4bc(small)
	checkShape(t, perf)
	checkShape(t, eff)
	// Efficiency at 1 node is 1 by construction.
	for c := 1; c <= 3; c++ {
		if v := parseCell(t, eff, 0, c); v != 1 {
			t.Errorf("efficiency at 1 node must be 1, got %v", v)
		}
	}
	// Ours should hold efficiency better than ScaLAPACK at the largest
	// node count.
	last := len(eff.Rows) - 1
	ours := parseCell(t, eff, last, 1)
	sca := parseCell(t, eff, last, 3)
	if ours <= sca {
		t.Errorf("weak-scaling efficiency: ours %v should beat ScaLAPACK %v", ours, sca)
	}
}

func TestFig4dShape(t *testing.T) { checkShape(t, Fig4d(small)) }

func TestFig4efShape(t *testing.T) {
	perf, eff := Fig4ef(small)
	checkShape(t, perf)
	checkShape(t, eff)
}

func TestCriticalPathsAllMatch(t *testing.T) {
	tbl := CriticalPaths(small)
	checkShape(t, tbl)
	for i, r := range tbl.Rows {
		if r[5] != "YES" {
			t.Errorf("row %d (%v): formula and DAG disagree", i, r)
		}
	}
}

func TestCrossoverTable(t *testing.T) {
	tbl := Crossover(small)
	checkShape(t, tbl)
}

func TestAsymptoticsTable(t *testing.T) {
	tbl := Asymptotics(small)
	checkShape(t, tbl)
}

func TestAccuracyMachinePrecision(t *testing.T) {
	tbl := Accuracy(small)
	checkShape(t, tbl)
	for i, r := range tbl.Rows {
		errCol := r[len(r)-1]
		if errCol == "FAILED" {
			t.Fatalf("row %d failed to converge", i)
		}
		v, err := strconv.ParseFloat(errCol, 64)
		if err != nil || v > 1e-12 {
			t.Errorf("row %d: relative error %s not at machine precision", i, errCol)
		}
	}
}

func TestTableRenderers(t *testing.T) {
	tbl := &Table{
		Name: "t", Caption: "c",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Fatalf("csv wrong: %q", csv)
	}
	txt := tbl.Text()
	if !strings.Contains(txt, "# t — c") || !strings.Contains(txt, "333") {
		t.Fatalf("text wrong: %q", txt)
	}
}

func TestAblationDepsInflation(t *testing.T) {
	tbl := AblationDeps(small)
	checkShape(t, tbl)
	for i, r := range tbl.Rows {
		// Region-level CP must equal the formula; coarse must inflate.
		if r[3] != r[4] {
			t.Errorf("row %d: region CP %s != formula %s", i, r[4], r[3])
		}
		if infl := parseCell(t, tbl, i, 6); infl <= 1.0 {
			t.Errorf("row %d: coarse dependencies should inflate the CP, got %vx", i, infl)
		}
	}
}

func TestAblationNBTradeoff(t *testing.T) {
	tbl := AblationNB(small)
	checkShape(t, tbl)
	// BND2BD cost must grow with NB.
	first := parseCell(t, tbl, 0, 2)
	last := parseCell(t, tbl, len(tbl.Rows)-1, 2)
	if last <= first {
		t.Errorf("BND2BD should grow with NB: %v -> %v", first, last)
	}
}

func TestAblationGammaShape(t *testing.T) {
	tbl := AblationGamma(small)
	checkShape(t, tbl)
}

func TestAblationHighTreeShape(t *testing.T) {
	tbl := AblationHighTree(small)
	checkShape(t, tbl)
	// Flat high tree must move the least data on the square shape.
	var flatVol, greedyVol float64
	for i, r := range tbl.Rows {
		if r[0] == "square" && r[2] == "off" {
			switch r[1] {
			case "FlatTT":
				flatVol = parseCell(t, tbl, i, 4)
			case "Greedy":
				greedyVol = parseCell(t, tbl, i, 4)
			}
		}
	}
	if flatVol <= 0 || greedyVol <= 0 || flatVol > greedyVol {
		t.Errorf("flat high tree should move least data on square: flat=%v greedy=%v", flatVol, greedyVol)
	}
}
