// Package plan selects concrete execution configurations — tile size,
// reduction tree, BIDIAG vs R-BIDIAG — for the tiled
// bidiagonalization pipeline, combining the paper's
// critical-path machinery with measured execution feedback.
//
// # Model-seeded pricing
//
// The planner (Enumerate, PriceAll, ModelPick) enumerates a small
// candidate set for a given (m, n, workers, kind) problem: tile sizes
// from the machine model's cache-blocking sweet spot filtered to the
// matrix, the tree shapes the paper compares (AUTO, FLATTS, GREEDY),
// and — for tall shapes passing Chan's 3m ≥ 5n rule —
// R-bidiagonalization. The BND2BD cut width is not a plan dimension: the
// band package derives it, and a caller's pin is carried through
// unchanged (profiles persisted with a window still load). Each candidate's stage-1 cost
// comes from building its real task DAG simulation-only (pipeline.Build
// with nil data) and
// list-scheduling it on `workers` virtual cores (sched.SimulateFixed)
// under per-kernel rates:
// seconds(t) = flops(t) / (rate[kind] · nb/(nb+40)) + overhead.
// The seed rates come from the calibrated machine model
// (machine.Miriel: peak × per-kernel efficiency); the per-task overhead
// keeps tiny tiles from looking free. The bulge-chase stage is priced
// in closed form: band.ModelFlops (about 8·n²·nb Householder flops)
// over the BRDSEG rate times the number of chase tasks that can run at
// once (band.Overlap, bounded by the n/nb rounds of a sweep and by the
// worker count). A values plan prices as stage-1 + stage-2: the chase
// starts when stage 1 is over. Shapes whose stage-1 DAG would itself blow the
// planning budget fall back to a closed-form stage-1 model, so
// planning cost stays bounded for any input — milliseconds, not
// proportional to the matrix. ModelPick is deterministic and
// memoized, which is
// what makes Options.Auto reproducible: the same (shape, workers, pins)
// always resolves to the same explicit plan.
//
// # Shape buckets
//
// The online Tuner keys profiles by shape bucket, not exact shape: the
// normalized (rows ≥ cols) dimensions are bucketed to ⌈log₂⌉ — 1024²
// and 768×900 share a bucket, 4096×256 does not — together with the
// worker count, the job kind, and any caller pins (a request pinning
// nb=32 must not pollute the unpinned profile). Within a bucket the
// candidate set is the model's top-K (K = 3) by priced cost, priced at
// the first shape seen for the bucket.
//
// # Promotion rule
//
// Until a profile is promoted, Decide spreads traffic across the
// candidate set (fewest-assigned-first, so concurrent jobs explore
// different candidates), reporting source "model" for the model's
// top pick and "explore" for the others. Every executed plan reports
// its measured whole-graph GFLOP/s (obs.Meter, fed from the
// sched.Graph.RunTask hot path at one nil-check cost) via Record.
// Once EVERY candidate has MinSamples samples, the candidate with the
// highest mean measured GFLOP/s is promoted; from then on Decide
// returns it with source "tuned". MinSamples < 0 disables promotion.
//
// # Persisted profile format
//
// Save writes the tuner's state as one versioned JSON document
// (tmp + rename, so readers never see a torn file):
//
//	{
//	  "version": 2,
//	  "min_samples": 3,
//	  "counters": {"model": …, "explore": …, "tuned": …, "promotions": …},
//	  "profiles": [{
//	    "key": {"kind": 1, "rows_bucket": 10, "cols_bucket": 10, "workers": 8, …},
//	    "m": 1024, "n": 1024,
//	    "promoted": 2,
//	    "candidates": [{"config": {…}, "desc": "nb=64 tree=Greedy …",
//	                    "model_cost": 0.0123, "samples": 4, "gflops": 21.7}]
//	  }]
//	}
//
// Load accepts only the current version (anything else is discarded —
// stale profiles re-learn rather than mislead) and restores sample
// counts and means, so a restarted daemon keeps its promotions. The
// same document is what bidiagd serves at /debug/plans.
package plan
