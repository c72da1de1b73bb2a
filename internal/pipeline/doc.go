// Package pipeline fuses the stages of the singular value reduction into
// one task graph and runs it through a single engine-agnostic executor
// layer. It is the seam between the algorithm builders (internal/core for
// GE2BND, internal/band for BND2BD) and the execution engines
// (internal/sched's sequential order and worker pool, internal/dist's
// owner-compute nodes): the public API resolves its Options into a Spec,
// Build turns the Spec into a Plan — one sched.Graph plus per-stage
// bookkeeping — and Run hands the graph to whichever Executor the caller
// selected. No entry point hand-wires an engine anymore.
//
// # Stage / Executor layering
//
// A Plan is built from up to three Stages, all living in the same
// sched.Graph so the superscalar dependence inference spans them:
//
//	GE2BND   the tiled QR/LQ kernels of BIDIAG or R-BIDIAG
//	         (core.BuildBidiag / core.BuildRBidiag);
//	BANDCP   cross-stage adapters, one per band tile, that drain the
//	         diagonal (and first-superdiagonal) tile's band region into
//	         the second stage's working storage (band.Target) the moment
//	         the last stage-1 task writing it retires;
//	BND2BD   the caravan tasks of the Householder bulge chase
//	         (band.Target.BuildSegments), reading the same ku-block
//	         column-window handles the adapters write.
//
// An Executor is anything that can run a sched.Graph to completion:
//
//	Sequential    submission order, the numerical reference;
//	Pool          a private shared-memory worker pool (sched.RunParallel:
//	              a sched.Runtime that lives for one graph);
//	Shared        one job among many on a process-wide sched.Runtime —
//	              the serving engine behind internal/serve;
//	OwnerCompute  the distributed owner-compute engine (dist.ExecuteCtx)
//	              over a block-cyclic node grid;
//	cluster.Job   the same engine with one rank per process: the cluster
//	              head's per-job executor over the TCP mesh.
//
// Underneath there are two worker loops, one per memory model. Pool and
// Shared are the same loop, sched.Runtime, differing only in who owns the
// pool: shared dependence counters, one lock. OwnerCompute is the other,
// dist's per-rank engine, run once per grid node in this process: each
// rank has its own counters and learns of remote completions from frames,
// exactly as a rank of the TCP cluster does.
//
// Every executor yields bitwise-identical results on the same Plan: all
// conflicting accesses are ordered by graph edges, so each datum sees
// the same kernel sequence under any schedule. Execution is
// context-aware (RunCtx) and panic-safe: a cancelled context stops
// dispatch and returns ctx.Err(); a panicking kernel surfaces as an
// error naming the kernel kind instead of killing the process.
//
// # Fused versus staged
//
// With Spec.Fused = false the Plan contains only the GE2BND stage — the
// classic staged path, in which the caller extracts the band afterwards
// and reduces it as a separate graph (bidiag.Options.Fused = false keeps
// this path as the oracle). With Spec.Fused = true the Plan carries all
// three stages and there is no barrier and no intermediate band.Matrix
// round-trip: a chase task over band columns [c, c+w) becomes runnable
// as soon as the stage-1 tasks finalizing those diagonal and
// superdiagonal tiles retire, which overlaps the head of the chase with
// the trailing stage-1 updates — the pipelining opportunity the paper's
// critical-path analysis exposes. The adapters carry zero weight and
// zero flops, so critpath.MeasurePipeline reports a fused critical path
// never longer than cp(GE2BND) + cp(BND2BD), and strictly shorter
// wherever the chase is cut into steps shorter than a sweep — an explicit
// Spec.Window, or the derived granularity on bands long enough to
// pipeline (internal/band); a short band is chased in whole-sweep
// tasks, which need the band end and so start when stage 1 is over. The
// critical-path saving is in any case bounded by the chase prefix ahead
// of the band end — every sweep drains off the band end, which stage 1
// finalizes last — so the fusion's main practical win is throughput: no
// barrier, no band round-trip, and stage-2 work filling stage-1
// stragglers on a finite pool (see critpath.MeasurePipeline for the
// full argument).
//
// Fusion changes the schedule, never the arithmetic: the adapters write
// exactly the values ExtractBand would have copied, and the chase tasks
// run under the same window dependences as the staged graph, so fused
// and staged singular values are bitwise-identical.
package pipeline
