package core

import (
	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/bdsqr"
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
)

// The singular vectors of the band factor, stages 2 and 3 of the vector
// path. With B = Q₂·B_bd·P₂ᵀ from the logged chase (band.ReduceLogged)
// and B_bd = U_bd·Σ·V_bdᵀ from the bidiagonal QR iteration (bdsqr.SVD),
//
//	B = (Q₂·U_bd) · Σ · (P₂·V_bd)ᵀ.
//
// Both factors are accumulated forward: Q₂ = H_1···H_L starts as the
// identity and is multiplied from the right by one reflector after the
// other, then by one plane rotation of the iteration after the other
// (P₂ likewise). Right-multiplication combines columns, so every row of
// the accumulated matrix is independent of every other: the matrices are
// cut into row panels and each (matrix, panel) pair is one task of a
// sched.Graph, run like the back-transform graphs of record.go. A task
// streams the whole reflector log, or a whole batch of rotations, over
// its panel. The panel cut depends on the order alone, never on the
// worker count, so the vectors are bitwise the same on any number of
// workers.

// panelBytes sizes the row panels: a panel of this many bytes stays in
// a core's L2 cache while the log and the rotations stream over it.
const panelBytes = 512 << 10

// stripRows is the height at which a panel task applies a batch of
// rotations: the whole batch goes over one strip of rows before the next
// strip is touched, so a strip (16 rows of up to a few hundred columns)
// stays in the L1 cache from sweep to sweep. 16 rows are what one pass of
// nla.RotSeq keeps in registers.
const stripRows = 16

// svdSerialWork is the size of a decomposition, as m·n² of its m×n
// input (m ≥ n), up to which SVDWorkers keeps it on one worker.
//
// Every graph of a 256² call is 2–8 ms of work and each one wakes the
// second thread. On the 2-vCPU box the kernel runs both threads on ONE
// CPU for about the first second of parallel work in a process, and again
// whenever something has displaced one of them (per call: 30 ms of
// run-queue wait in /proc/self/task/*/schedstat, the other CPU idle);
// there they trade the CPU at every task boundary. A 256² call measured
// 43 ms in that state, 28 ms once the threads were spread, and 35–40 ms
// on one worker (35 with trees built for one core, 40 with the trees
// built for two that SVD keeps so that S stays bitwise SingularValues');
// 128² 6.7 / 5.0 / 6.3 ms. Up to 256² the second worker buys 20–30% at
// best, costs 10–25% at worst, and which of the two a call gets changes
// from one second to the next — the benchmark's ops/s on 256² spread by
// how long the first state happened to last. At 384² (82 against 94 ms)
// and 512² (147 against 205) the pool pays. The cut-over sits between
// 256³ = 2²⁴ and 384³ ≈ 2²⁵·⁸.
const svdSerialWork = 1 << 25

// SVDWorkers returns the number of workers the stages of the vector path
// run on for an m×n input when the caller allows workers: one for a
// decomposition of at most svdSerialWork, whose graphs then run on the
// calling goroutine, and workers otherwise. The choice concerns execution
// only — trees, panel cuts and results do not depend on it.
func SVDWorkers(m, n, workers int) int {
	if m < n {
		m, n = n, m
	}
	if float64(m)*float64(n)*float64(n) <= svdSerialWork {
		return 1
	}
	return workers
}

// panelRows returns the panel height for matrices with n columns.
func panelRows(n int) int {
	// Multiples of 8 rows keep panel columns on cache-line boundaries.
	return max(panelBytes/(8*max(n, 1))&^7, 8)
}

// forPanels adds one task per row panel of each of xs to g.
func forPanels(g *sched.Graph, kind kernels.Kind, flops func(rows int) float64, xs []*nla.Matrix, run func(which int, panel *nla.Matrix, ws *nla.Workspace)) {
	for which, x := range xs {
		h := panelRows(x.Cols)
		g.NeedScratch(h)
		for r0 := 0; r0 < x.Rows; r0 += h {
			which, panel := which, x.View(r0, 0, min(h, x.Rows-r0), x.Cols)
			f := flops(panel.Rows)
			g.AddTask(kind, 0, f, f, func(ws *nla.Workspace) { run(which, panel, ws) }).SetCoords(r0/h, which, 0)
		}
	}
}

// paddedIdentity returns the n×n identity with a leading dimension that
// is an odd multiple of 8: a rotation sweep walks the columns of a panel
// at that stride, and a stride of a multiple of 2 KiB or more makes every
// store alias the loads a column or two ahead (same address bits 0–11),
// which costs a third of the sweep's time at n = 512.
func paddedIdentity(n int) *nla.Matrix {
	ld := (n+7)&^7 | 8
	x := nla.FromColMajor(n, n, ld, make([]float64, ld*n))
	for i := 0; i < n; i++ {
		x.Data[i+i*ld] = 1
	}
	return x
}

// FormQP returns Q₂ and P₂ of a logged band reduction as dense n×n
// matrices.
func FormQP(log *band.Log, workers int) (q, p *nla.Matrix, err error) {
	n := log.N()
	q, p = paddedIdentity(n), paddedIdentity(n)
	g := sched.NewGraph()
	forPanels(g, kernels.BRDQPKind, log.MulFlops, []*nla.Matrix{q, p}, func(which int, panel *nla.Matrix, ws *nla.Workspace) {
		mark := ws.Mark()
		t := ws.ScratchVec(panel.Rows)
		if which == 0 {
			log.MulQ(panel, t)
		} else {
			log.MulP(panel, t)
		}
		ws.Release(mark)
	})
	return q, p, runGraph(g, workers)
}

// BidiagonalVectors computes the SVD of the upper-bidiagonal matrix
// (d, e) and folds its vectors into u and v: on return u holds
// u·U_bd and v holds v·V_bd, columns ordered like the descending
// singular values s. u and v have len(d) columns and any number of rows;
// pass Q₂ and P₂ of the band stage to obtain the vectors of the band, or
// identities for those of the bidiagonal itself.
func BidiagonalVectors(d, e []float64, u, v *nla.Matrix, workers int) (s []float64, err error) {
	xs := []*nla.Matrix{u, v}
	res, err := bdsqr.SVD(d, e, func(b *bdsqr.Batch) error {
		runs := [2][]bdsqr.Run{b.Left, b.Right}
		var rotations int
		for _, r := range b.Left {
			rotations += len(r.C)
		}
		g := sched.NewGraph()
		forPanels(g, kernels.BDROTKind, func(rows int) float64 {
			// Left and right rotations come in equal numbers, up to
			// the rare zero-diagonal deflations; 6 flops per element.
			return 6 * float64(rows) * float64(rotations)
		}, xs, func(which int, panel *nla.Matrix, _ *nla.Workspace) {
			for r0 := 0; r0 < panel.Rows; r0 += stripRows {
				strip := panel.View(r0, 0, min(stripRows, panel.Rows-r0), panel.Cols)
				for i := range runs[which] {
					runs[which][i].Apply(strip)
				}
			}
		})
		return runGraph(g, workers)
	})
	if err != nil {
		return nil, err
	}
	permuteCols(u, res.Col, nil)
	permuteCols(v, res.Col, res.Neg)
	return res.S, nil
}

// permuteCols reorders the columns of x in place so that column k
// becomes the old column src[k], negated where neg[k] (neg may be nil).
func permuteCols(x *nla.Matrix, src []int, neg []bool) {
	col := func(j int) []float64 { return x.Data[j*x.LD : j*x.LD+x.Rows] }
	tmp := make([]float64, x.Rows)
	done := make([]bool, len(src))
	for k0 := range src {
		if done[k0] {
			continue
		}
		// Follow the cycle through k0: each column takes its source's
		// content, the last one what k0 held.
		copy(tmp, col(k0))
		k := k0
		for ; src[k] != k0; k = src[k] {
			copy(col(k), col(src[k]))
			done[k] = true
		}
		copy(col(k), tmp)
		done[k] = true
	}
	for k := range neg {
		if neg[k] {
			nla.Scal(-1, col(k))
		}
	}
}
