package bidiag

import (
	"math"
	"math/rand"
	"testing"
)

// autoMatrix builds a deterministic m×n test matrix.
func autoMatrix(m, n int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	a := NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	return a
}

// bitwiseEqual compares two singular-value slices bit for bit — the
// contract is identical execution, not approximate agreement.
func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzAutoPlan pins the planner's output contract across ragged shapes,
// worker counts and pins: AutoPlan always returns validated, executable
// Options (tile size within the matrix, pins honored, a GEMM blocking
// passed through untouched), and running with Options.Auto is
// bitwise-identical to running the resolved explicit plan.
func FuzzAutoPlan(f *testing.F) {
	f.Add(8, 8, 2, 0, false)
	f.Add(3, 5, 1, 0, false)   // wide, sub-tile
	f.Add(5, 3, 4, 0, false)   // tall, sub-tile
	f.Add(1, 1, 1, 0, false)   // degenerate
	f.Add(40, 16, 3, 2, false) // pinned nb
	f.Add(16, 40, 2, 0, true)  // wide + blocking pin
	f.Add(33, 9, 8, 0, false)  // ragged tall
	f.Fuzz(func(t *testing.T, m, n, workers, nbPin int, gemmPin bool) {
		// Clamp to cheap shapes: the property matters, not the scale.
		m, n = 1+abs(m)%48, 1+abs(n)%48
		workers = 1 + abs(workers)%8
		opts := &Options{Auto: true, Workers: workers}
		if nbPin > 0 {
			opts.NB = 1 + nbPin%16
		}
		if gemmPin {
			opts.Gemm = GemmBlock{MC: 16, KC: 24, NC: 16}
		}

		resolved, err := AutoPlan(m, n, opts)
		if err != nil {
			t.Fatalf("AutoPlan(%d, %d, %+v): %v", m, n, opts, err)
		}
		if resolved.Auto {
			t.Fatalf("AutoPlan left Auto set: %+v", resolved)
		}
		if _, err := resolved.Validate(); err != nil {
			t.Fatalf("AutoPlan returned invalid options %+v: %v", resolved, err)
		}
		if minDim := min(m, n); resolved.NB > minDim {
			t.Fatalf("AutoPlan chose nb=%d for %dx%d", resolved.NB, m, n)
		}
		// A pinned nb is honored verbatim up to the matrix; past minDim
		// the planner clamps it (one tile covers everything either way).
		if opts.NB > 0 && resolved.NB != min(opts.NB, min(m, n)) {
			t.Fatalf("AutoPlan overrode pinned nb=%d with %d for %dx%d", opts.NB, resolved.NB, m, n)
		}
		if resolved.Gemm != opts.Gemm {
			t.Fatalf("AutoPlan changed the blocking %+v to %+v", opts.Gemm, resolved.Gemm)
		}

		a := autoMatrix(m, n, 11)
		gotAuto, err := SingularValues(a, opts)
		if err != nil {
			t.Fatalf("SingularValues(auto): %v", err)
		}
		gotExplicit, err := SingularValues(a, &resolved)
		if err != nil {
			t.Fatalf("SingularValues(resolved %+v): %v", resolved, err)
		}
		if !bitwiseEqual(gotAuto, gotExplicit) {
			t.Fatalf("auto run differs from its resolved plan %+v:\nauto     %v\nexplicit %v",
				resolved, gotAuto, gotExplicit)
		}
	})
}

// TestAutoPlanDeterministic pins that equal requests resolve to equal
// plans — the property the service's cache key relies on.
func TestAutoPlanDeterministic(t *testing.T) {
	for _, s := range [][2]int{{64, 64}, {16, 40}, {40, 16}, {7, 7}} {
		o := &Options{Auto: true, Workers: 2}
		p1, err := AutoPlan(s[0], s[1], o)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := AutoPlan(s[0], s[1], o)
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 {
			t.Fatalf("%dx%d: AutoPlan not deterministic: %+v vs %+v", s[0], s[1], p1, p2)
		}
	}
}

// TestAutoPlanRejectsDistributed pins the documented error.
func TestAutoPlanRejectsDistributed(t *testing.T) {
	_, err := AutoPlan(8, 8, &Options{Auto: true, Distributed: &DistOptions{Nodes: 2}})
	if err == nil {
		t.Fatal("AutoPlan accepted a distributed request")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
