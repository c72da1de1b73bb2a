package band

import "github.com/tiled-la/bidiag/internal/sched"

// This file is the band-side half of the fused GE2BND→BND2BD pipeline
// (internal/pipeline): instead of materializing the stage-1 result as a
// band.Matrix and copying it into the reduction's working storage in one
// barrier step, a Target exposes that working storage for incremental
// filling, so cross-stage adapter tasks can drain each stage-1 tile into
// it the moment the tile retires — and the chase tasks reading those
// columns become runnable while stage 1 is still updating the trailing
// matrix.

// Target is the working storage of a fused reduction: the band starts
// zero and is filled element-wise by adapter tasks (via Set) before the
// chase tasks of BuildSegments read it. The sched runtime provides the
// ordering — adapters and chase tasks share the per-window data handles
// — so Set is only called on quiescent columns.
type Target struct {
	w *work
}

// NewTarget returns the zero working band of an n×n reduction with ku
// stored superdiagonals (clamped to n−1 as in New).
func NewTarget(n, ku int) *Target {
	return &Target{w: newWork(n, ku)}
}

// N returns the order of the band.
func (t *Target) N() int { return t.w.n }

// KU returns the stored superdiagonal count.
func (t *Target) KU() int { return t.w.ku }

// Set writes band element (i, j). It panics outside the stored band,
// matching Matrix.Set.
func (t *Target) Set(i, j int, v float64) {
	if s := j - i; s < 0 || s > t.w.ku || i < 0 || j >= t.w.n {
		panic("band: Target.Set outside band")
	}
	t.w.set(i, j, v)
}

// BuildSegments appends the chase tasks of the reduction onto g (window
// follows Options.BND2BDWindow), declaring read-write accesses on the
// given window handles (created earlier with NewWindowHandles for the
// same n and ku), and returns the bidiagonal finisher. Tasks already
// submitted against those handles — the fused pipeline's band-fill
// adapters — order before every chase task that touches their windows,
// which is exactly the cross-stage dependence that lets the bulge chase
// start on the leading columns while stage 1 is still running.
func (t *Target) BuildSegments(g *sched.Graph, window int, handles []*sched.Handle) (finish func() *Matrix) {
	buildSegments(g, t.w, window, handles)
	return t.w.extract
}
