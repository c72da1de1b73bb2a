package experiments

import (
	"math/rand"
	"time"

	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
)

// Table1 verifies Table I of the paper: the cost of each tile kernel in
// units of nb³/3 flops. The "model" column is the leading-order flop count
// of the kernel divided by nb³/3; the "measured" column times this
// repository's kernels and reports their achieved GFlop/s, demonstrating
// the TS-versus-TT efficiency gap the paper's trees trade on.
func Table1(sc Scale) *Table {
	nb := 128
	if sc.Small {
		nb = 48
	}
	unit := float64(nb) * float64(nb) * float64(nb) / 3
	// One warm, max-sized workspace, as the executors provide per worker:
	// the timed kernels run allocation-free, so the measured GFlop/s are
	// the steady-state per-core rates of Table I.
	ws := nla.NewWorkspace(kernels.ScratchSize(kernels.TSMQRKind, nb, nb, nb))

	rows := [][]string{}
	for _, tc := range kernels.BenchCases(rand.New(rand.NewSource(1)), nb) {
		// Table I lists the LQ applies only through TSMLQ.
		if tc.Kind == kernels.UNMLQKind || tc.Kind == kernels.TTMLQKind {
			continue
		}
		best := 1e30
		for r := 0; r < 3; r++ {
			if tc.Restore != nil {
				tc.Restore()
			}
			start := time.Now()
			tc.Run(ws)
			best = min(best, time.Since(start).Seconds())
		}
		rows = append(rows, []string{
			tc.Kind.String(),
			f1(kernels.Weight(tc.Kind)),
			f2(tc.Flops / unit),
			f2(tc.Flops / best / 1e9),
		})
	}

	return &Table{
		Name:    "table1",
		Caption: "Table I kernel costs: Table-I weight vs leading-order flops/(nb³/3), plus measured kernel GFlop/s of this implementation (nb=" + f0(float64(nb)) + ")",
		Header:  []string{"kernel", "tableI", "flops/unit", "GFlop/s(go)"},
		Rows:    rows,
	}
}
