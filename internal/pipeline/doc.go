// Package pipeline builds the stages of the singular value reduction as
// task graphs and runs them through a single engine-agnostic executor
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
// The values pipeline is two plans, run one after the other:
//
//	GE2BND   Build: the tiled QR/LQ kernels of BIDIAG or R-BIDIAG
//	         (core.BuildBidiag / core.BuildRBidiag), leaving the band in
//	         the plan's Tiles;
//	BND2BD   BuildBND2BD: the caravan tasks of the Householder bulge
//	         chase (band.BuildReduceGraph) over the band the caller
//	         extracted from those tiles.
//
// Each sweep of the chase needs every band column before it can start,
// and below a band of ~1900 columns the chase is a chain of whole
// sweeps, so running both stages in one graph overlaps nothing; the
// barrier between the two plans costs one band extraction.
//
// An Executor is anything that can run a sched.Graph to completion:
//
//	Sequential    submission order, the numerical reference;
//	Pool          a private shared-memory worker pool (sched.RunParallel:
//	              a sched.Runtime that lives for one graph);
//	Shared        one job among many on a sched.Runtime someone else
//	              owns: a bidiag.Service's shared pool, or the one
//	              runtime a one-shot call starts for all its graphs;
//	OwnerCompute  the distributed owner-compute engine (dist.ExecuteCtx)
//	              over a block-cyclic node grid;
//	cluster.Job   the same engine with one rank per process: the cluster
//	              head's per-job executor over the TCP mesh.
//
// Underneath there is one worker loop, sched.Runtime. Pool and Shared
// differ only in who owns the pool. OwnerCompute runs each grid node of
// this process as an owned job on a runtime of its own: a rank dispatches
// only its tasks and learns of remote completions from frames, exactly as
// a rank of the TCP cluster does.
//
// Every executor yields bitwise-identical results on the same Plan: all
// conflicting accesses are ordered by graph edges, so each datum sees
// the same kernel sequence under any schedule. Execution is
// context-aware (RunCtx) and panic-safe: a cancelled context stops
// dispatch and returns context.Cause(ctx); a panicking kernel surfaces as an
// error naming the kernel kind instead of killing the process.
//
// # Templates
//
// A job's graphs depend on its shape and plan, not its values: every job
// runs a template (Template) of its key — a Job (Local or GridJob), the
// shape, and for an SVD the recording of its reflectors (Plan.Recorder) —
// a plan kept with the memory its tasks point at and re-armed by the next
// job, which copies its input in; a values job's chase runs one too
// (Chase). A template goes back (Return) only after its job succeeded.
package pipeline
