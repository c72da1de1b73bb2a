package main

import (
	"math/rand"
	"time"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
)

// The probes measure layers that look the same whatever the workload:
// the tile kernels and GEMM at nb=64, the scheduler's per-task cost on
// graphs whose tasks do nothing, and the message counts of a two-node
// distributed reduction. Every traced run executes them, so a kernel or
// scheduler change shows next to the workload numbers it should move.

const probeNB = 64

// bestRate runs f in batches of iters calls and returns the best batch's
// rate in GFLOP/s for the given flops per call (computed, not counted).
// Best-of is the right figure for a peak rate: every disturbance on a
// shared box only ever slows a batch down.
func bestRate(flops float64, iters int, f func()) float64 {
	f() // warm caches and the workspace
	best := time.Duration(1<<63 - 1)
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		best = min(best, time.Since(t0))
	}
	return flops * float64(iters) / 1e9 / best.Seconds()
}

func upperTriangle(a *nla.Matrix) *nla.Matrix {
	for j := 0; j < a.Cols; j++ {
		for i := j + 1; i < a.Rows; i++ {
			a.Set(i, j, 0)
		}
	}
	return a
}

// kernelProbes rates the factor kernel and the three apply kernels stage
// 1 spends its time in, plus the packed GEMM under them.
func kernelProbes(rng *rand.Rand, out map[string]float64) {
	const nb = probeNB
	random := func() *nla.Matrix { return nla.RandomMatrix(rng, nb, nb) }
	tau := make([]float64, nb)

	a0, a, t := random(), nla.NewMatrix(nb, nb), nla.NewMatrix(nb, nb)
	ws := nla.NewWorkspace(kernels.ScratchSize(kernels.GEQRTKind, nb, nb, nb))
	out["kernels.geqrt_gflops"] = bestRate(kernels.FlopsGEQRT(nb, nb), 200, func() {
		nla.CopyInto(a, a0)
		kernels.GEQRT(a, t, tau, ws)
	})

	c1, c2 := random(), random()
	ws = nla.NewWorkspace(kernels.ScratchSize(kernels.UNMQRKind, nb, nb, nb))
	out["kernels.unmqr_gflops"] = bestRate(kernels.FlopsUNMQR(nb, nb, nb), 200, func() {
		kernels.UNMQR(true, nb, a, t, c1, ws)
	})

	r1, v2, t2 := upperTriangle(random()), random(), nla.NewMatrix(nb, nb)
	kernels.TSQRT(r1, v2, t2, tau, nil)
	ws = nla.NewWorkspace(kernels.ScratchSize(kernels.TSMQRKind, nb, nb, nb))
	out["kernels.tsmqr_gflops"] = bestRate(kernels.FlopsTSMQR(nb, nb, nb), 200, func() {
		kernels.TSMQR(true, nb, v2, t2, c1, c2, ws)
	})

	r1, v2 = upperTriangle(random()), upperTriangle(random())
	kernels.TTQRT(r1, v2, t2, tau, nil)
	ws = nla.NewWorkspace(kernels.ScratchSize(kernels.TTMQRKind, nb, nb, nb))
	out["kernels.ttmqr_gflops"] = bestRate(kernels.FlopsTTMQR(nb, nb), 200, func() {
		kernels.TTMQR(true, nb, v2, t2, c1, c2, ws)
	})

	x, y, z := random(), random(), nla.NewMatrix(nb, nb)
	out["nla.gemm64_gflops"] = bestRate(2*nb*nb*nb, 500, func() {
		nla.Gemm(false, false, 1, x, y, 0, z)
	})
}

// schedTasks is the size of the scheduler probe graphs: enough tasks
// that start-up and wind-down of the pool vanish in the per-task figure.
const schedTasks = 100_000

// schedProbe returns the wall time per task, in ns, of running a graph
// of schedTasks no-op tasks on the given worker count: independent tasks
// time the ready-queue hand-off, a dependent chain times the wake-up of
// a successor. The median of three runs is reported.
func schedProbe(workers int, chain bool) float64 {
	g := sched.NewGraph()
	h := g.NewHandle(8, 0)
	noop := func(*nla.Workspace) {}
	for i := 0; i < schedTasks; i++ {
		if chain {
			g.AddTask(kernels.LACPYKind, 0, 1, 0, noop, sched.RW(h))
		} else {
			g.AddTask(kernels.LACPYKind, 0, 1, 0, noop)
		}
	}
	var ns []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		if err := g.RunParallel(workers); err != nil {
			panic(err) // a no-op task cannot fail
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/schedTasks)
	}
	return median(ns)
}

func schedProbes(nproc int, out map[string]float64) {
	out["sched.empty_ns_per_task_w1"] = schedProbe(1, false)
	out["sched.empty_ns_per_task_wN"] = schedProbe(nproc, false)
	out["sched.chain_ns_per_task_wN"] = schedProbe(nproc, true)
}

// distProbe reduces a to band form on a 2×1 grid of in-process nodes
// with one worker each. The message count and payload repeat exactly;
// the wall time is informational, since two nodes plus the caller
// oversubscribe a two-core box.
func distProbe(a *bidiag.Dense, out map[string]float64) error {
	b, err := bidiag.GE2BND(a, &bidiag.Options{
		Distributed: &bidiag.DistOptions{GridRows: 2, GridCols: 1, WorkersPerNode: 1},
	})
	if err != nil {
		return err
	}
	out["dist.comm_count"] = float64(b.Dist.CommCount)
	out["dist.payload_mb"] = float64(b.Dist.PayloadBytes) / 1e6
	out["dist.run_ms"] = ms(b.Dist.Wall)
	return nil
}
