package bidiag

import (
	"fmt"

	"github.com/tiled-la/bidiag/internal/critpath"
	"github.com/tiled-la/bidiag/internal/trees"
)

// CriticalPath returns the critical path length — execution time on
// unbounded resources with zero communication, in units of nb³/3 flops —
// of the chosen algorithm on a p×q tile matrix, measured on the actual
// task graph. This is the quantity analyzed in Section IV of the paper.
//
// Only the machine-independent trees (FlatTS, FlatTT, Greedy) are
// supported; the Auto tree adapts to a core count, so its critical path is
// not a meaningful notion (Section V).
func CriticalPath(alg Algorithm, tree Tree, p, q int) (float64, error) {
	if p < q || q < 1 {
		return 0, fmt.Errorf("bidiag: need p ≥ q ≥ 1, got p=%d q=%d", p, q)
	}
	k, err := tree.kind()
	if err != nil {
		return 0, err
	}
	if k == trees.Auto {
		return 0, fmt.Errorf("bidiag: the Auto tree has no machine-free critical path")
	}
	switch alg {
	case Bidiag:
		return critpath.MeasureBidiag(k, p, q), nil
	case RBidiag:
		return critpath.MeasureRBidiag(k, p, q), nil
	case AutoAlgorithm:
		b := critpath.MeasureBidiag(k, p, q)
		r := critpath.MeasureRBidiag(k, p, q)
		return min(b, r), nil
	}
	return 0, fmt.Errorf("bidiag: unknown algorithm %v", alg)
}

// CriticalPathFormula returns the paper's closed-form critical path of
// BIDIAG (Section IV.A): the sum of per-step lengths, equal to
// 12pq−6p+2q−4 for FlatTS and 6pq−4p+12q−10 for FlatTT.
func CriticalPathFormula(tree Tree, p, q int) (float64, error) {
	k, err := tree.kind()
	if err != nil {
		return 0, err
	}
	if k == trees.Auto {
		return 0, fmt.Errorf("bidiag: the Auto tree has no closed-form critical path")
	}
	if p < q || q < 1 {
		return 0, fmt.Errorf("bidiag: need p ≥ q ≥ 1, got p=%d q=%d", p, q)
	}
	return critpath.BidiagFormula(k, p, q), nil
}

// CrossoverRatio returns δs(q) for the given tree: the smallest p/q at
// which R-BIDIAG's critical path is no longer than BIDIAG's (Section
// IV.C). ok is false when no crossover exists for p/q ≤ maxRatio.
func CrossoverRatio(tree Tree, q, maxRatio int) (delta float64, ok bool, err error) {
	k, kerr := tree.kind()
	if kerr != nil {
		return 0, false, kerr
	}
	if k == trees.Auto {
		return 0, false, fmt.Errorf("bidiag: the Auto tree has no machine-free crossover")
	}
	d, _, found := critpath.Crossover(k, q, maxRatio)
	return d, found, nil
}

// PipelineCriticalPath measures the critical path of the FUSED
// GE2BND+BND2BD task graph of an m×n matrix (m ≥ n) at tile size nb,
// alongside the critical paths of the two stages built separately, all
// in modeled flops (the only time base the stages share). fused ≤
// ge2bnd + bnd2bd always holds, strictly so where the chase is cut into
// steps short enough to start before stage 1 ends; the margin is the
// chase prefix that hides under stage 1 — see
// internal/critpath.MeasurePipeline for why it is structurally small.
// window follows Options.BND2BDWindow semantics (0 derives the cut).
func PipelineCriticalPath(tree Tree, m, n, nb, window int) (fused, ge2bnd, bnd2bd float64, err error) {
	if m < n || n < 1 || nb < 1 {
		return 0, 0, 0, fmt.Errorf("bidiag: need m ≥ n ≥ 1 and nb ≥ 1, got m=%d n=%d nb=%d", m, n, nb)
	}
	if window < 0 {
		return 0, 0, 0, fmt.Errorf("bidiag: window must be ≥ 0, got %d", window)
	}
	k, err := tree.kind()
	if err != nil {
		return 0, 0, 0, err
	}
	if k == trees.Auto {
		return 0, 0, 0, fmt.Errorf("bidiag: the Auto tree has no machine-free critical path")
	}
	fused, ge2bnd, bnd2bd = critpath.MeasurePipeline(k, m, n, nb, window)
	return fused, ge2bnd, bnd2bd, nil
}
