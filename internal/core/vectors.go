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
// sched.Graph, handed to the caller's Run like the back-transform graphs
// of record.go. A task streams the whole reflector log, or a whole batch
// of rotations, over its panel. The panel cut depends on the shape alone,
// never on the worker count, and each row sees the same arithmetic in any
// panel, so the vectors are bitwise the same on any number of workers.

// panelBytes caps the row panels: a panel of this many bytes stays in
// a core's L2 cache while the log and the rotations stream over it.
const panelBytes = 512 << 10

// minPanels is how many row panels a matrix is cut into at least, down to
// panels of minPanelRows rows. A graph of two matrices then holds eight
// tasks or more rather than one per worker, so a worker whose CPU is taken
// away mid-task (host steal, another process) holds up one small panel
// while the other workers drain the rest. Below 64 rows FormQP's per-
// reflector calls stop paying for themselves (32-row panels cost a third
// more at 256²).
const (
	minPanels    = 4
	minPanelRows = 64
)

// stripRows is the height at which a panel task applies a batch of
// rotations: the whole batch goes over one strip of rows before the next
// strip is touched, so a strip (16 rows of up to a few hundred columns)
// stays in the L1 cache from sweep to sweep. 16 rows are what one pass of
// nla.RotSeq keeps in registers.
const stripRows = 16

// panelRows returns the panel height for an m×n matrix.
func panelRows(m, n int) int {
	// Multiples of 8 rows keep panel columns on cache-line boundaries.
	fit := max(panelBytes/(8*max(n, 1))&^7, 8)
	return min(fit, max(((m+minPanels-1)/minPanels+7)&^7, minPanelRows))
}

// BackHalfTasks bounds the number of tasks in the graphs the back half of
// a vector decomposition of an m×n input at tile size nb runs after its
// GE2BND graph: FormQP, the rotation batches and the two back-transforms.
// A traced service job sizes its rings with it.
func BackHalfTasks(m, n, nb int) int {
	if m < n {
		m, n = n, m
	}
	// FormQP and every batch are one task per row panel of each factor.
	// A batch holds 32 full-length sweeps of rotations and the iteration
	// takes about two sweeps per value over a shrinking window, so about
	// n/32 batches on random input: the allowance is twice that plus two.
	h := panelRows(n, n)
	panels := 2 * ((n + h - 1) / h)
	batches := n/16 + 2
	// A tree records at most 2t−1 reflectors on a panel of t tiles (t
	// factorizations, t−1 merges): 2pq − q² for the QR of a p×q tile
	// grid, (q−1)² for the LQ steps of a q×q one, so R-BIDIAG's
	// 2pq + (q−1)² bounds BIDIAG's count too. Each reflector is applied
	// across the q tile columns of the n vectors.
	p, q := (m+nb-1)/nb, (n+nb-1)/nb
	return panels*(1+batches) + q*(2*p*q+(q-1)*(q-1))
}

// forPanels adds one task per row panel of each of xs to g, panel by
// panel, alternating between the matrices: workers that take tasks in
// that order work on different matrices. Two workers on neighbouring
// panels of one matrix slow each other down, apparently over the cache
// lines at the panels' common edge, which every reflector of FormQP
// writes: at 256² in four panels per matrix FormQP took 10.5 ms on two
// workers in matrix order and 5.4 ms alternating.
func forPanels(g *sched.Graph, kind kernels.Kind, flops func(rows int) float64, xs []*nla.Matrix, run func(which int, panel *nla.Matrix, ws *nla.Workspace)) {
	hs := make([]int, len(xs))
	for which, x := range xs {
		hs[which] = panelRows(x.Rows, x.Cols)
		g.NeedScratch(hs[which])
	}
	for i, added := 0, true; added; i++ {
		added = false
		for which, x := range xs {
			r0 := i * hs[which]
			if r0 >= x.Rows {
				continue
			}
			which, panel := which, x.View(r0, 0, min(hs[which], x.Rows-r0), x.Cols)
			f := flops(panel.Rows)
			g.AddTask(kind, 0, f, f, func(ws *nla.Workspace) { run(which, panel, ws) }).SetCoords(i, which, 0)
			added = true
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
func FormQP(log *band.Log, run Run) (q, p *nla.Matrix, err error) {
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
	return q, p, run(g)
}

// BidiagonalVectors computes the SVD of the upper-bidiagonal matrix
// (d, e) and folds its vectors into u and v: on return u holds
// u·U_bd and v holds v·V_bd, columns ordered like the descending
// singular values s. u and v have len(d) columns and any number of rows;
// pass Q₂ and P₂ of the band stage to obtain the vectors of the band, or
// identities for those of the bidiagonal itself.
func BidiagonalVectors(d, e []float64, u, v *nla.Matrix, run Run) (s []float64, err error) {
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
		return run(g)
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
