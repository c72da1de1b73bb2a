package band

import (
	"math"

	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
)

// This file is the task-graph form of the BND2BD stage: the rounds of
// reduce.go grouped into tasks and submitted to the internal/sched
// data-flow runtime, so the second stage of the singular value pipeline
// runs on the same worker pool (or shared runtime, simulator,
// owner-compute executor) as GE2BND.
//
// Decomposition. Consecutive sweeps are grouped into caravans of S
// sweeps, and a caravan advances in steps of G rounds: task (caravan
// starting at sweep i0, step t) runs, for l = 0 … S−1 in this order, the
// rounds
//
//	[t·G − l, (t+1)·G − l)
//
// of sweep i0+l that exist (rounds below 0 or past the sweep's last one
// do not): each later sweep of a caravan is skewed back by one round.
// Tasks are submitted caravan by caravan, step by step — sweep order.
//
// Dependences. Round r of sweep i reads and writes band entries only in
// the columns [c0, c0+k) of its block column c0 = i+1+r·ku, and hands
// one left reflector to round r+1 of its sweep (work.vl, work.tauL). A
// task declares a read-write access on the window handle of every
// ku-block column between the first and the last column its rounds
// touch, and on one handle per caravan that stands for the caravan's
// reflectors in flight. The sched runtime orders two tasks that share a
// handle by submission order, so
//
//	(a) rounds r and r+1 of a sweep are ordered (same task, or two
//	    steps of one caravan), and
//	(b) two rounds whose block columns overlap are ordered whenever
//	    they sit in different tasks.
//
// Bitwise identity. Every engine runs each round with the same kernel
// on the same block, so the result equals Reduce's bit for bit as soon
// as any two rounds with common data run in Reduce's order, sweep i
// before sweep i' > i. Write c0, c0' for their block columns.
//
//   - Band entries are common only if the block columns overlap,
//     |c0' − c0| < ku. In different tasks (b) orders the pair by
//     submission, which is sweep order except between steps of one
//     caravan, where step t holds rounds of late sweeps and a later step
//     rounds of early ones. For such a pair — round r' of sweep i0+l' in
//     step t, round r of sweep i0+l, l < l', in a later step —
//     r' < (t+1)·G − l' and r ≥ (t+1)·G − l, so r − r' > l'−l and
//     c0 − c0' ≥ 2·ku − 1: nothing in common. Inside a task sweeps run
//     in ascending order. (The one-round skew is exactly what the chase
//     needs: round r of sweep i+1 overlaps round r+1 of sweep i in one
//     column and must follow it, and is free of round r+2.)
//   - The reflector generated on block column c0 occupies tauL[c0] and
//     vl(c0, c0+k); two reflectors share a slot only if their block
//     columns overlap, so writers are ordered as above. The reader,
//     round r+1 of sweep i, has block column c0+ku; a later sweep's
//     round writing an overlapping slot has c0' > c0 − ku + 1. If
//     c0' > c0 it overlaps the reader's block column and is ordered
//     after it directly; otherwise i' ≥ i+2 and round r of sweep i+1,
//     at block column c0+1, overlaps both, so the writer follows it and
//     it follows the reader. Across steps of one caravan the distance
//     2·ku − 1 above already keeps the slots apart.
//
// Granularity. A task has to outweigh its dispatch, and a second worker
// has to return more in overlap than it costs in moving the band from
// cache to cache; see granularity.

// taskFlops is the modeled size of a full task, S·G rounds of 16·ku²
// flops. The round kernels measure 6 GF/s (portable) to 11 GF/s (AVX2)
// on ku = 64 blocks, so 2¹⁹ flops are 50–90 µs, two orders of magnitude
// above the 0.5–1 µs per task the sched worker loop costs on an empty
// graph (benchmark metric sched.empty_ns_per_task_wN): ku = 64 gives
// caravans of 3 sweeps × 3 rounds.
const taskFlops = 1 << 19

// minOverlap is the modeled parallelism below which the chase is not
// pipelined. A caravan's successor trails it by its span of G+S rounds
// and sweeps average half the longest one, so about perSweep/(2·(G+S))
// tasks can run at once. Each hand-over between workers moves the task's
// columns between their caches, about as many bytes as the task has
// flops. Measured on two cores with 2 MiB of L2 each at ku = 64: with
// n ≤ 1536 (modeled overlap ≤ 2) two workers take 1.1–1.25× the
// one-thread time however the tasks are cut, from n = 2048 (2.7) on they
// take 0.5–0.65×.
const minOverlap = 2.5

// granularity returns the caravan size S (sweeps) and step length G
// (rounds) of the reduction of an n×n band with ku ≥ 1 superdiagonals.
// S·G rounds reach taskFlops. window > 0 is a cut width in columns and
// fixes G at window/ku, at least one round. Otherwise the caravan is
// square, which minimizes its span G+S, when the sweeps are long enough
// to overlap minOverlap of them, and G is the whole sweep when they are
// not: the graph is then a chain of S-sweep tasks, which costs a second
// worker nothing.
func granularity(n, ku, window int) (s, g int) {
	rounds := math.Ceil(taskFlops / roundFlops(ku, ku))
	sweepsFor := func(g int) int { return int(math.Ceil(rounds / float64(g))) }
	perSweep := (n-2)/ku + 1 // rounds of the longest sweep
	if window > 0 {
		g = window / ku
	} else {
		g = int(math.Ceil(math.Sqrt(rounds)))
		if overlap(perSweep, sweepsFor(g), g) < minOverlap {
			g = perSweep
		}
	}
	g = max(min(g, perSweep), 1)
	return sweepsFor(g), g
}

// overlap is the model behind minOverlap: sweeps of perSweep/2 rounds on
// average, caravans s+g rounds apart.
func overlap(perSweep, s, g int) float64 { return float64(perSweep) / float64(2*(s+g)) }

// Overlap returns the modeled number of chase tasks that can run at once
// in the reduction of an n×n band with ku superdiagonals (window follows
// Options.BND2BDWindow): at least 1, and exactly 1 when the steps are
// whole sweeps.
func Overlap(n, ku, window int) float64 {
	ku = WindowWidth(n, ku) // ku as the reduction clamps it
	s, g := granularity(n, ku, window)
	return max(overlap((n-2)/ku+1, s, g), 1)
}

// WindowWidth returns the width in columns of the window handles of the
// reduction of an n×n band with ku superdiagonals: one ku-block.
func WindowWidth(n, ku int) int { return max(min(ku, n-1), 1) }

// NewWindowHandles registers the column-window data handles of a BND2BD
// reduction of an n×n band with ku superdiagonals on g and returns them
// (nil for n = 0); handle j covers columns [j·w, (j+1)·w) for
// w = WindowWidth(n, ku). The fused pipeline (internal/pipeline) creates
// the handles first, submits its band-fill adapter tasks against them,
// and only then appends the chase tasks, so the sched runtime orders
// every chase task after the adapters that populate the columns it
// touches.
func NewWindowHandles(g *sched.Graph, n, ku int) []*sched.Handle {
	if n <= 0 {
		return nil
	}
	width := WindowWidth(n, ku)
	handles := make([]*sched.Handle, (n+width-1)/width)
	// The size model is the window's share of the work array.
	bytes := int32(min(8*width*(3*width+1), math.MaxInt32))
	for i := range handles {
		handles[i] = g.NewHandle(bytes, 0)
	}
	return handles
}

// BuildReduceGraph appends the BND2BD task DAG for b onto g and returns
// the finisher that extracts the bidiagonal result once the graph has
// been executed (by any sched engine: RunSequential, RunParallel, or a
// simulator ignoring the closures). window follows
// Options.BND2BDWindow. The input matrix is not modified; the tasks
// share one private working copy of the band.
func BuildReduceGraph(g *sched.Graph, b *Matrix, window int) (finish func() *Matrix) {
	t := &Target{w: newWorkFrom(b)}
	return t.BuildSegments(g, window, NewWindowHandles(g, b.N, b.KU))
}

// segment is one task: step t of the caravan of sweeps [i0, i0+s), g
// rounds long.
type segment struct {
	i0, s, t, g int
}

// rounds returns the rounds of the segment's l-th sweep that exist
// (rlo > rhi when there are none).
func (seg segment) rounds(w *work, l int) (rlo, rhi int) {
	rlo = max(seg.t*seg.g-l, 0)
	rhi = min((seg.t+1)*seg.g-l-1, w.lastRound(seg.i0+l))
	return rlo, rhi
}

// run executes the segment's rounds, sweep-major.
func (w *work) run(seg segment, ws *nla.Workspace) {
	mark := ws.Mark()
	scratch := ws.ScratchVec(w.scratchElems())
	for l := 0; l < seg.s; l++ {
		rlo, rhi := seg.rounds(w, l)
		for r := rlo; r <= rhi; r++ {
			w.round(seg.i0+l, r, scratch)
		}
	}
	ws.Release(mark)
}

// span returns the inclusive range of band columns the segment's rounds
// touch and their modeled flop count. ok is false when the segment
// holds no round.
func (seg segment) span(w *work) (lo, hi int, flops float64, ok bool) {
	lo, hi = w.n, -1
	for l := 0; l < seg.s; l++ {
		i := seg.i0 + l
		rlo, rhi := seg.rounds(w, l)
		if rlo > rhi {
			continue
		}
		lo = min(lo, i+1+rlo*w.ku)
		hi = max(hi, min(i+(rhi+1)*w.ku, w.n-1))
		flops += sweepFlops(w.n, w.ku, i, rlo, rhi)
	}
	return lo, hi, flops, hi >= 0
}

// buildSegments emits the tasks of the reduction over w onto g,
// declaring read-write accesses on the given window handles.
func buildSegments(g *sched.Graph, w *work, window int, handles []*sched.Handle) {
	nsweeps := w.sweeps()
	if nsweeps == 0 {
		return
	}
	g.NeedScratch(w.scratchElems())
	S, G := granularity(w.n, w.ku, window)
	width := WindowWidth(w.n, w.ku)
	var accs []sched.Access
	for i0 := 0; i0 < nsweeps; i0 += S {
		s := min(S, nsweeps-i0)
		// The caravan's reflectors in flight, one per sweep.
		inflight := g.NewHandle(int32(8*s*w.ku), 0)
		// The caravan's last sweep finishes last: it starts s−1 rounds
		// behind and sweeps lose at most one round per ku rows.
		steps := (w.lastRound(i0+s-1)+s-1)/G + 1
		for t := 0; t < steps; t++ {
			seg := segment{i0: i0, s: s, t: t, g: G}
			lo, hi, flops, ok := seg.span(w)
			if !ok {
				continue
			}
			accs = append(accs[:0], sched.RW(inflight))
			for win := lo / width; win <= hi/width; win++ {
				accs = append(accs, sched.RW(handles[win]))
			}
			g.AddTask(kernels.BRDSEGKind, 0, flops, flops,
				func(ws *nla.Workspace) { w.run(seg, ws) }, accs...).
				SetCoords(i0, s, t)
		}
	}
}

// ReduceParallel performs BND2BD as a task graph on `workers` workers
// (window follows Options.BND2BDWindow). The result is bitwise-identical
// to Reduce for every input — see the file comment — so either can serve
// as the other's oracle. A recovered kernel panic is returned as the
// error; the partial band is not.
func ReduceParallel(b *Matrix, workers, window int) (*Matrix, error) {
	g := sched.NewGraph()
	finish := BuildReduceGraph(g, b, window)
	var err error
	if workers > 1 {
		err = g.RunParallel(workers)
	} else {
		err = g.RunSequential()
	}
	if err != nil {
		return nil, err
	}
	return finish(), nil
}
