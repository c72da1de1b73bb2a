//go:build !race

// The race detector's sync.Pool drops a random quarter of what is put
// back, so recycling is not measurable under -race.

package bidiag

import (
	"runtime"
	"testing"
)

// TestTallValuesAllocation guards the arena recycling of a job's tiles and
// T factors: once warm, an R-BIDIAG values call allocates what it returns
// and its graphs, not a copy of its input plus a T per TS elimination —
// at most a quarter of the input's bytes, where it was 2.2 times them.
func TestTallValuesAllocation(t *testing.T) {
	const m, n = 2048, 128
	a := randomDense(3, m, n)
	call := func() {
		if _, err := SingularValues(a, nil); err != nil {
			t.Fatal(err)
		}
	}
	call()
	call()
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		call()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	input := uint64(8 * m * n)
	t.Logf("%d bytes per call, %.1f%% of the %d-byte input", best, 100*float64(best)/float64(input), input)
	if best > input/4 {
		t.Fatalf("a warm %d×%d values call allocates %d bytes, over a quarter of its %d-byte input", m, n, best, input)
	}
}
