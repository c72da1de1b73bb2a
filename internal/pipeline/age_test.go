//go:build !race

// The race detector's sync.Pool drops a random quarter of what is put
// back, so recycling is not measurable under -race.

package pipeline

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/trees"
)

// TestAgedTemplateMemoryRecycles checks that a template dropped after two
// idle GC cycles gives its memory back to nla's pools: the template of a
// job of another shape is then built on those chunks, as a job's arena
// was on the one a finished job released, instead of allocating its tiles
// and T factors anew.
func TestAgedTemplateMemoryRecycles(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Release every template pooled so far, then let the GC have the pools.
	age()
	age()
	nla.DropIdle()

	const nb = 256
	rng := rand.New(rand.NewSource(3))
	job := Local{NB: nb, Tree: trees.Greedy, Cores: 1}
	Template(job, nla.RandomMatrix(rng, 1024, 512), false).Return()
	age()
	age()

	b := nla.RandomMatrix(rng, 1024, 256)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := Template(job, b, false)
	runtime.ReadMemStats(&after)
	tiles := uint64(8 * b.Rows * b.Cols)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("the new shape's template allocated %d bytes; its tiles alone hold %d", got, tiles)
	if got > tiles/4 {
		t.Fatalf("a template built after another aged out allocated %d bytes, over a quarter of its %d bytes of tiles", got, tiles)
	}
	if _, err := Run(p, Sequential{}); err != nil {
		t.Fatal(err)
	}
}
