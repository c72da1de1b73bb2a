// Package serve turns the one-shot reduction library into a concurrent
// job service: many in-flight SVD/singular-value jobs of mixed shapes
// multiplexed over ONE process-wide worker pool, with admission control,
// cancellation, panic isolation and a result cache. It is the engine
// behind the public bidiag.Service and the bidiagd daemon.
//
// # Architecture
//
//	Submit ──► admission queue ──► MaxInFlight ──► sched.Runtime (shared pool)
//	   │            (bounded)       dispatchers            │
//	   │                           one graph per job       └─ tasks of ALL jobs
//	   │                           (or the job's own          interleave on the
//	   │                            Executor)                 same workers
//	   └─ cache hit: immediate result
//
// There is one dispatch path: every job is one graph, run by whichever
// dispatcher takes it off the queue. The package is deliberately
// generic: a Request carries a Build closure that returns the job's task
// graph (the caller decides what a "job" is — the public API builds
// pipeline plans) and a finish closure run after a successful execution,
// under the job's context, to extract the result. A finish may run
// further graphs of the job on the same runtime (a values job's bulge
// chase, an SVD job's back half); Request.FinishTasks sizes a traced
// job's rings for them.
//
// # Shared elastic runtime
//
// Every job executes on one process-wide sched.Runtime instead of a
// private pool per call: each graph is admitted as a runtime job with its
// own ready heap, workers pick across jobs by fair share, and
// per-worker scratch arenas grow to the largest requirement among the
// jobs they serve. Many small task graphs keep the machine saturated
// where a single graph's critical path cannot — the multi-DAG regime the
// tiled-algorithms literature (Bouwmeester, arXiv:1303.3182) argues these
// runtimes were designed for.
//
// # Backpressure and admission
//
// The admission queue is bounded (Config.QueueDepth). A full queue
// fails Submit immediately with ErrOverloaded — callers (the daemon maps
// it to HTTP 429) shed load at the edge instead of queueing without
// bound. At most Config.MaxInFlight graphs execute concurrently; queued
// jobs wait their turn in FIFO order.
//
// # Cancellation
//
// Every job carries the context passed to Submit. A cancelled job fails
// promptly with ctx.Err() whether it is still queued, mid-graph (the
// runtime stops dispatching its tasks; in-flight tiles finish) or in its
// finish, which receives the same context.
//
// # Panic isolation
//
// Kernel panics are recovered by the runtime and surfaced as job errors
// naming the kernel kind; the process, the pool and every other job keep
// running: each job owns its graph, so the failure lands only on the job
// owning the bad tile.
//
// # Result cache
//
// Jobs with a non-empty Key publish their result in a content-addressed
// LRU cache with a byte budget (Config.CacheBytes). The public layer
// derives keys from a digest of the matrix bytes plus every
// result-affecting Options field, so a hit is exact — same input, same
// options — never approximate. Cached values are shared across requests
// and must be treated as immutable by callers.
package serve
