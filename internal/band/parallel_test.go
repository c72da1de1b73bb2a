package band

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
)

// The task-graph reduction promises BITWISE identity with the sequential
// reference — the graph keeps every pair of conflicting rounds in
// sweep-major order — so these tests compare float64 bits, not
// tolerances, across ragged shapes, bandwidths, worker counts and cut
// widths.

func diffBidiagonal(t *testing.T, label string, want, got *Matrix) {
	t.Helper()
	if got.N != want.N || got.KU != want.KU {
		t.Fatalf("%s: shape (%d,%d) != (%d,%d)", label, got.N, got.KU, want.N, want.KU)
	}
	dw, ew := want.Bidiagonal()
	dg, eg := got.Bidiagonal()
	for i := range dw {
		if dw[i] != dg[i] {
			t.Fatalf("%s: d[%d] differs bitwise: %v != %v", label, i, dg[i], dw[i])
		}
	}
	for i := range ew {
		if ew[i] != eg[i] {
			t.Fatalf("%s: e[%d] differs bitwise: %v != %v", label, i, eg[i], ew[i])
		}
	}
}

func TestReduceParallelMatchesSequential(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 9, 33, 65, 100, 127, 130, 200} {
		seen := map[int]bool{}
		for _, ku := range []int{1, 2, 3, 7, 32, 64, n - 1, n + 5} {
			ku = max(min(ku, n-1), 0)
			if seen[ku] {
				continue
			}
			seen[ku] = true
			src := randomBand(int64(100+n), n, ku)
			want := Reduce(src)
			for _, workers := range []int{1, 2, 4, 8} {
				for _, window := range []int{0, ku, 3 * ku, n} {
					got, err := ReduceParallel(src, workers, window)
					if err != nil {
						t.Fatal(err)
					}
					diffBidiagonal(t,
						fmt.Sprintf("n=%d ku=%d workers=%d window=%d", n, ku, workers, window),
						want, got)
				}
			}
		}
	}
}

func TestReduceParallelEmpty(t *testing.T) {
	r, err := ReduceParallel(New(0, 0), 4, 0)
	if err != nil || r.N != 0 {
		t.Fatalf("empty input: %v %v", r, err)
	}
}

// Property: random ragged (n, ku, window, workers) keep bitwise parity.
func TestReduceParallelParityFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(160)
		ku := 1 + rng.Intn(n-1)
		window := []int{0, 1, ku, 2*ku + 1, 128}[rng.Intn(5)]
		workers := 1 + rng.Intn(8)
		b := randomBand(seed, n, ku)
		want := Reduce(b)
		got, err := ReduceParallel(b, workers, window)
		if err != nil {
			return false
		}
		dw, ew := want.Bidiagonal()
		dg, eg := got.Bidiagonal()
		for i := range dw {
			if dw[i] != dg[i] {
				return false
			}
		}
		for i := range ew {
			if ew[i] != eg[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The graph must be acyclic (submission order is a topological order),
// its tasks must cover exactly the modeled work for any granularity, and
// one window spanning the band must serialize it.
func TestReduceGraphShape(t *testing.T) {
	b := randomBand(5, 200, 12)
	for _, window := range []int{0, 12, 48, 200} {
		g := sched.NewGraph()
		finish := BuildReduceGraph(g, b, window)
		if err := g.CheckAcyclic(); err != nil {
			t.Fatal(err)
		}
		sum := g.Summary()
		if model := ModelFlops(200, 12); sum.Tasks == 0 || sum.TotalFlops != model {
			t.Fatalf("window %d: graph flops %g in %d tasks, model %g", window, sum.TotalFlops, sum.Tasks, model)
		}
		cp := g.CriticalPath(sched.FlopsTime)
		if cp <= 0 || cp > sum.TotalFlops {
			t.Fatalf("window %d: critical path %g outside (0, total=%g]", window, cp, sum.TotalFlops)
		}
		if window == 200 && cp != sum.TotalFlops {
			t.Fatalf("one window must give a chain: cp %g, work %g", cp, sum.TotalFlops)
		}
		if err := g.RunParallel(4); err != nil {
			t.Fatal(err)
		}
		diffBidiagonal(t, fmt.Sprintf("window %d", window), Reduce(b), finish())
	}
}

// Tasks counts what BuildReduceGraph builds, for every granularity and
// for bandwidths the band clamps.
func TestTasksCountsTheGraph(t *testing.T) {
	for _, tc := range []struct{ n, ku int }{{0, 0}, {1, 0}, {2, 1}, {3, 9}, {48, 16}, {200, 12}, {768, 64}, {2048, 64}} {
		for _, window := range []int{0, 1, tc.ku, 3 * tc.ku, tc.n} {
			g := sched.NewGraph()
			BuildReduceGraph(g, New(tc.n, tc.ku), window)
			if got := Tasks(tc.n, tc.ku, window); got != len(g.Tasks) {
				t.Errorf("Tasks(%d,%d,%d) = %d, graph has %d", tc.n, tc.ku, window, got, len(g.Tasks))
			}
		}
	}
}

// ModelFlops is the closed-form sum over rounds, 8·n²·ku to leading
// order.
func TestModelFlops(t *testing.T) {
	for _, tc := range []struct{ n, ku int }{{768, 64}, {4096, 64}, {1000, 37}} {
		got := ModelFlops(tc.n, tc.ku)
		lead := 8 * float64(tc.n) * float64(tc.n) * float64(tc.ku)
		if got < 0.85*lead || got > lead {
			t.Errorf("ModelFlops(%d,%d) = %g, leading term %g", tc.n, tc.ku, got, lead)
		}
	}
	for _, tc := range []struct{ n, ku int }{{0, 0}, {1, 0}, {2, 1}, {50, 1}} {
		if got := ModelFlops(tc.n, tc.ku); got != 0 {
			t.Errorf("ModelFlops(%d,%d) = %g, want 0", tc.n, tc.ku, got)
		}
	}
	if ModelFlops(3, 9) != ModelFlops(3, 2) || ModelFlops(3, 2) == 0 {
		t.Errorf("ku is not clamped to n−1")
	}
}

// Granularity pin: a task is several rounds, so the task count stays
// below a quarter of the n²/(2·ku) rounds (plus the ramp of each
// caravan) and a task's modeled size stays in the tens of µs. This is
// what keeps graph dispatch out of the profile; see taskFlops.
func TestReduceGraphGranularity(t *testing.T) {
	for _, tc := range []struct{ n, ku int }{{768, 64}, {1024, 64}, {4096, 64}, {2048, 32}, {3000, 48}} {
		g := sched.NewGraph()
		BuildReduceGraph(g, New(tc.n, tc.ku), 0)
		rounds := tc.n * tc.n / (2 * tc.ku)
		if limit := rounds/4 + 8*tc.n/tc.ku; len(g.Tasks) > limit {
			t.Errorf("n=%d ku=%d: %d tasks for %d rounds, limit %d", tc.n, tc.ku, len(g.Tasks), rounds, limit)
		}
		if mean := g.Summary().TotalFlops / float64(len(g.Tasks)); mean < taskFlops/4 {
			t.Errorf("n=%d ku=%d: mean task %g flops, want ≥ %d", tc.n, tc.ku, mean, taskFlops/4)
		}
	}
}

// The warm round kernel and the task closure must not allocate: they
// work in place on the shared band and on the worker's scratch. This
// pins the zero-alloc property the executors' steady state relies on.
func TestChaseKernelsZeroAlloc(t *testing.T) {
	src := randomBand(3, 256, 12)
	w := newWorkFrom(src)
	scratch := make([]float64, w.scratchElems())
	if allocs := testing.AllocsPerRun(20, func() {
		w.round(5, 0, scratch)
		w.round(5, 1, scratch)
	}); allocs != 0 {
		t.Fatalf("round kernel allocates: %v allocs/op", allocs)
	}

	g := sched.NewGraph()
	BuildReduceGraph(g, src, 0)
	ws := g.NewWorkspace()
	task := g.Tasks[len(g.Tasks)/2]
	if allocs := testing.AllocsPerRun(20, func() { task.Run(ws) }); allocs != 0 {
		t.Fatalf("task closure allocates: %v allocs/op", allocs)
	}
	if ws.Grows() != 0 {
		t.Fatalf("graph under-declares its scratch: workspace grew %d times", ws.Grows())
	}
}

// granularity pins the resolution of the BND2BDWindow knob — a positive
// value is a cut width rounded down to whole ku-blocks (at least one
// round, at most a whole sweep), zero selects the derived step — and the
// derived choice: tasks of at least taskFlops, pipelined only when the
// sweeps are long enough to overlap.
func TestGranularity(t *testing.T) {
	const perTask = taskFlops / (16 * 64 * 64)
	for _, tc := range []struct{ n, ku, window, wantG int }{
		{1000, 64, 64, 1},
		{1000, 64, 200, 3},
		{1000, 64, 10, 1},
		{1000, 64, 1 << 62, 16},
		{768, 64, 0, 12}, // 12 rounds per sweep: too short to overlap
		{4096, 64, 0, 3}, // 64 rounds per sweep: pipelined
		{2048, 64, 0, 3},
	} {
		s, g := granularity(tc.n, tc.ku, tc.window)
		if g != tc.wantG {
			t.Errorf("granularity(%d,%d,%d): G = %d, want %d", tc.n, tc.ku, tc.window, g, tc.wantG)
		}
		if s < 1 || s*g < perTask {
			t.Errorf("granularity(%d,%d,%d) = %d sweeps × %d rounds, below %d rounds", tc.n, tc.ku, tc.window, s, g, perTask)
		}
	}
	for _, tc := range []struct{ n, ku, want int }{{1000, 64, 64}, {100, 200, 99}, {1, 0, 1}, {0, 0, 1}} {
		if got := WindowWidth(tc.n, tc.ku); got != tc.want {
			t.Errorf("WindowWidth(%d,%d) = %d, want %d", tc.n, tc.ku, got, tc.want)
		}
	}
}

// TestReduceReusesArenaMemory chases bands held in an arena whose recycled
// chunks and buffers an earlier job left full of NaN: the chase clears
// what it reads before writing it, so each result is bitwise that of the
// same band on fresh memory, from a chunk-sized work array and from one
// larger than a chunk (700·(3·64+1) elements).
func TestReduceReusesArenaMemory(t *testing.T) {
	var ar nla.Arena
	for _, c := range []struct{ n, ku int }{{9, 3}, {65, 7}, {130, 32}, {700, 64}} {
		src := randomBand(int64(c.n), c.n, c.ku)
		want := Reduce(src)
		for _, workers := range []int{1, 2} {
			for _, v := range [][]float64{ar.Vec(c.n * c.ku), ar.Vec(c.n * (3*c.ku + 1)), ar.Buffer(c.n * (3*c.ku + 1))} {
				for i := range v {
					v[i] = math.NaN()
				}
			}
			ar.Release()
			b := NewIn(&ar, c.n, c.ku)
			for s := 0; s <= b.KU; s++ {
				copy(b.diags[s], src.diags[s])
			}
			got, err := ReduceParallel(b, workers, 0)
			if err != nil {
				t.Fatal(err)
			}
			diffBidiagonal(t, fmt.Sprintf("n=%d ku=%d workers=%d", c.n, c.ku, workers), want, got)
			ar.Release()
		}
	}
}
