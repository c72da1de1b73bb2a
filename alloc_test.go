//go:build !race

// The race detector's sync.Pool drops a random quarter of what is put
// back, so recycling is not measurable under -race.

package bidiag

import (
	"runtime"
	"testing"
)

// warmValuesCall makes two SingularValues calls on a, then returns the
// fewest bytes and objects one more call allocated over five tries.
func warmValuesCall(t *testing.T, a *Dense) (bytes, objects uint64) {
	call := func() {
		if _, err := SingularValues(a, nil); err != nil {
			t.Fatal(err)
		}
	}
	call()
	call()
	bytes, objects = ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		call()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	return bytes, objects
}

// TestTallValuesAllocation guards the recycling of a job's tiles and T
// factors: once warm, an R-BIDIAG values call allocates what it returns,
// not a copy of its input plus a T per TS elimination — at most a quarter
// of the input's bytes, where it was 2.2 times them.
func TestTallValuesAllocation(t *testing.T) {
	const m, n = 2048, 128
	best, _ := warmValuesCall(t, randomDense(3, m, n))
	input := uint64(8 * m * n)
	t.Logf("%d bytes per call, %.1f%% of the %d-byte input", best, 100*float64(best)/float64(input), input)
	if best > input/4 {
		t.Fatalf("a warm %d×%d values call allocates %d bytes, over a quarter of its %d-byte input", m, n, best, input)
	}
}

// TestTallValuesTemplateObjects guards the re-armed task graphs: a warm
// values call checks out both its graphs as templates instead of building
// them, so it allocates a few dozen objects, not one or more per task,
// handle and edge (about 3 000 at this shape when it built them).
func TestTallValuesTemplateObjects(t *testing.T) {
	_, objects := warmValuesCall(t, randomDense(3, 2048, 128))
	t.Logf("%d objects per call", objects)
	if objects >= 1000 {
		t.Fatalf("a warm 2048×128 values call allocates %d objects, want fewer than 1000", objects)
	}
}
