// Package critpath reproduces Section IV of the paper: closed-form
// critical path lengths of the tiled bidiagonalization algorithms, their
// DAG-measured counterparts, the asymptotic ratios of Theorem 1 and the
// BIDIAG ↔ R-BIDIAG crossover ratio δs of Section IV.C.
//
// All lengths are expressed in the paper's time unit of nb³/3 floating
// point operations (Table I weights).
package critpath

import (
	"fmt"
	"math"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/trees"
)

// Log2Ceil returns ⌈log₂ u⌉ for u ≥ 1.
func Log2Ceil(u int) int {
	if u <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(u))))
}

// StepQR returns the critical path of one QR step applied to a tiled
// matrix of size (u, v) — the panel has u tile rows, the trailing update
// v−1 tile columns — for the FLATTS, FLATTT and GREEDY trees, as given in
// Section IV.A.
func StepQR(tree trees.Kind, u, v int) float64 {
	if u < 1 {
		return 0
	}
	switch tree {
	case trees.FlatTS:
		if v == 1 {
			return float64(4 + 6*(u-1))
		}
		return float64(4 + 6 + 12*(u-1))
	case trees.FlatTT:
		if v == 1 {
			return float64(4 + 2*(u-1))
		}
		return float64(4 + 6 + 6*(u-1))
	case trees.Greedy:
		if v == 1 {
			return float64(4 + 2*Log2Ceil(u))
		}
		return float64(4 + 6 + 6*Log2Ceil(u))
	default:
		panic(fmt.Sprintf("critpath: no closed form for tree %v", tree))
	}
}

// StepLQ returns the critical path of one LQ step on a (u, v) tile matrix:
// LQ1step(u, v) = QR1step(v, u).
func StepLQ(tree trees.Kind, u, v int) float64 { return StepQR(tree, v, u) }

// BidiagFormula returns the critical path of BIDIAG(p, q) predicted by the
// paper: since consecutive QR and LQ steps cannot overlap, it is the sum of
// the per-step critical paths,
//
//	Σ_{k=1..q} QR1step(p−k+1, q−k+1) + Σ_{k=1..q−1} LQ1step(p−k+1, q−k).
func BidiagFormula(tree trees.Kind, p, q int) float64 {
	if p < q {
		panic("critpath: BIDIAG requires p ≥ q")
	}
	cp := 0.0
	for k := 1; k <= q; k++ {
		cp += StepQR(tree, p-k+1, q-k+1)
	}
	for k := 1; k <= q-1; k++ {
		cp += StepLQ(tree, p-k+1, q-k)
	}
	return cp
}

// BidiagFlatTSClosed is the paper's closed form 12pq − 6p + 2q − 4.
func BidiagFlatTSClosed(p, q int) float64 {
	return float64(12*p*q - 6*p + 2*q - 4)
}

// BidiagFlatTTClosed is the paper's closed form 6pq − 4p + 12q − 10.
func BidiagFlatTTClosed(p, q int) float64 {
	return float64(6*p*q - 4*p + 12*q - 10)
}

// BidiagGreedySquarePow2Closed is the paper's closed form for q a power of
// two: BIDIAGGREEDY(q, q) = 12q·log₂q + 8q − 6log₂q − 4.
func BidiagGreedySquarePow2Closed(q int) float64 {
	lg := math.Log2(float64(q))
	return 12*float64(q)*lg + 8*float64(q) - 6*lg - 4
}

// BidiagGreedyPow2Closed is the paper's closed form for p and q powers of
// two with p > q: 6q·log₂p + 6q·log₂q + 14q − 4log₂p − 6log₂q − 10.
func BidiagGreedyPow2Closed(p, q int) float64 {
	lp, lq := math.Log2(float64(p)), math.Log2(float64(q))
	fq := float64(q)
	return 6*fq*lp + 6*fq*lq + 14*fq - 4*lp - 6*lq - 10
}

// buildCfg returns a Config for unit-tile DAG construction.
func buildCfg(tree trees.Kind) core.Config {
	// The AUTO tree needs a core count; critical paths are a machine-free
	// notion, so Section IV only covers FLATTS/FLATTT/GREEDY. Auto is
	// accepted here for exploratory use with a default of 24 cores.
	return core.Config{Tree: tree, Cores: 24}
}

// MeasureBidiag builds the BIDIAG DAG for a p×q tile matrix and returns
// its critical path under Table I weights.
func MeasureBidiag(tree trees.Kind, p, q int) float64 {
	g := sched.NewGraph()
	core.BuildBidiag(g, core.ShapeOf(p, q, 1), nil, buildCfg(tree))
	return g.CriticalPath(sched.WeightTime)
}

// MeasureRBidiag is the DAG-measured critical path of R-BIDIAG(p, q); the
// DAG lets the bidiagonalization overlap the tail of the QR factorization,
// so this is at most RBidiagNoOverlap.
func MeasureRBidiag(tree trees.Kind, p, q int) float64 {
	g := sched.NewGraph()
	core.BuildRBidiag(g, core.ShapeOf(p, q, 1), nil, buildCfg(tree))
	return g.CriticalPath(sched.WeightTime)
}

// MeasureQR is the DAG-measured critical path of the tiled QR
// factorization of a p×q tile matrix (steps pipeline, unlike in BIDIAG).
func MeasureQR(tree trees.Kind, p, q int) float64 {
	g := sched.NewGraph()
	core.BuildQR(g, core.ShapeOf(p, q, 1), nil, buildCfg(tree))
	return g.CriticalPath(sched.WeightTime)
}

// RBidiagNoOverlap is the paper's Section IV.B accounting: the critical
// path of the QR factorization plus the bidiagonalization of the square R
// factor, minus the skipped first QR step.
func RBidiagNoOverlap(tree trees.Kind, p, q int) float64 {
	return MeasureQR(tree, p, q) + BidiagFormula(tree, q, q) - StepQR(tree, q, q)
}

// Crossover computes δs(q): the smallest ratio p/q at which R-BIDIAG has a
// critical path no longer than BIDIAG, scanning p from q to maxDelta·q.
// Section IV.C reports that δs oscillates between 5 and 8 under the
// paper's no-overlap accounting; the DAG measurement lets R-BIDIAG overlap
// its QR phase with the bidiagonalization, which lowers δs somewhat,
// especially for small q. It returns the ratio and the tile count p at the
// switch; ok is false if no crossover occurs within the scanned range.
func Crossover(tree trees.Kind, q, maxDelta int) (delta float64, p int, ok bool) {
	for p = q; p <= maxDelta*q; p++ {
		b := MeasureBidiag(tree, p, q)
		r := MeasureRBidiag(tree, p, q)
		if r <= b {
			return float64(p) / float64(q), p, true
		}
	}
	return 0, 0, false
}

// CrossoverNoOverlap is Crossover under the paper's Section IV accounting:
// BIDIAG by its step-sum formula versus R-BIDIAG as QR + BIDIAG(q,q) −
// QR(1) with no overlap. This is the quantity whose oscillation in [5, 8]
// the paper reports.
func CrossoverNoOverlap(tree trees.Kind, q, maxDelta int) (delta float64, p int, ok bool) {
	for p = q; p <= maxDelta*q; p++ {
		b := BidiagFormula(tree, p, q)
		r := RBidiagNoOverlap(tree, p, q)
		if r <= b {
			return float64(p) / float64(q), p, true
		}
	}
	return 0, 0, false
}

// GreedyAsymptoticRatio returns BIDIAGGREEDY(p, q)/((12+6α)·q·log₂q) for
// p = ⌈β·q^(1+α)⌉, the quantity of Equation (1) whose limit is 1.
func GreedyAsymptoticRatio(alpha, beta float64, q int) float64 {
	p := int(math.Ceil(beta * math.Pow(float64(q), 1+alpha)))
	if p < q {
		p = q
	}
	return BidiagFormula(trees.Greedy, p, q) / ((12 + 6*alpha) * float64(q) * math.Log2(float64(q)))
}

// Theorem1Ratio returns BIDIAG(p,q)/R-BIDIAG(p,q) for p = ⌈β·q^(1+α)⌉
// using DAG-measured critical paths; Theorem 1 states the limit 1 + α/2.
func Theorem1Ratio(alpha, beta float64, q int) float64 {
	p := int(math.Ceil(beta * math.Pow(float64(q), 1+alpha)))
	if p < q {
		p = q
	}
	return MeasureBidiag(trees.Greedy, p, q) / MeasureRBidiag(trees.Greedy, p, q)
}

// MeasureBND2BD builds the BND2BD DAG of an n×n band with ku
// superdiagonals (window ≤ 0: the derived granularity) and returns its
// measured critical path and total work, both in modeled Householder
// flops — the second-stage counterpart of the Section IV GE2BND
// measurements. The Table I nb³/3 unit does not apply to chase tasks,
// whose cost depends on ku and the cut, so the natural unit here is the
// flop model itself; work/cp bounds the speedup of the stage on unbounded
// resources. Where a step spans the whole sweep — one window, or the
// derived granularity on a band too short to pipeline — the DAG is a
// chain with cp = work.
func MeasureBND2BD(n, ku, window int) (cp, work float64) {
	g := sched.NewGraph()
	band.BuildReduceGraph(g, band.New(n, ku), window)
	cp = g.CriticalPath(sched.FlopsTime)
	return cp, g.Summary().TotalFlops
}
