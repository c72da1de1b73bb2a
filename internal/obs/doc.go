// Package obs is the execution-telemetry layer of the runtime: it records
// what the scheduler actually did, where the simulators and critical-path
// formulas predict what it should do.
//
// Three pieces compose:
//
//   - Tracer: per-worker ring buffers collecting one Event per executed
//     task — timestamped start/end, kernel kind, tile coordinates, modeled
//     flops, executing worker. Recording is lock-free and allocation-free
//     (a single-producer append into a preallocated ring, published with
//     one atomic store), and collection is safe while workers are still
//     recording, so live executions can be inspected mid-flight. A nil
//     *Tracer disables tracing entirely: the executors' fast path is one
//     nil check per task, no allocation, no time syscalls.
//
//   - Summarize: turns a collected trace into the measured counterpart of
//     the model's figures — makespan, per-worker busy time and utilization,
//     and per-kernel-kind flop throughput (the measured GFLOP/s-per-shape
//     data the autotuned planner feeds on). internal/critpath.Reconcile
//     compares these against the DAG's predicted critical path and
//     simulated makespan.
//
//   - Histogram and Registry: a dependency-free Prometheus-text-format
//     metrics layer. Histogram is a fixed-bucket concurrent distribution
//     (the serving layer's latency and queue-wait figures) whose snapshots
//     export directly as Prometheus histogram series and answer quantile
//     queries; Registry renders gauges, counters and histograms in the
//     text exposition format scraped at bidiagd's GET /metrics.
//
// The package sits below internal/sched (which threads a Tracer through
// every executor), the root package's Service (which keeps its counters
// in these primitives) and cmd/bidiagd (which exports them); it depends only
// on internal/kernels for the kind vocabulary.
package obs
