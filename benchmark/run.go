package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/httpapi"
)

// setupRepeats is how often a run sets its workload up; setup_s is the
// median. A single set-up of a second or two is too short to compare
// between commits.
const setupRepeats = 3

// result is one run of one workload in one mode.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Info are figures printed beside the metrics: sample counts, the
	// tail percentile in force, the daemon build time.
	Info  map[string]float64 `json:"info"`
	spans []span
}

// run sets workload w up and measures it for d, end to end (traced
// false) or layer by layer (traced true).
func run(ctx context.Context, e *env, w *workload, seed int64, d time.Duration, traced bool) (*result, error) {
	if w.served && e.daemonBin == "" {
		bin, s, err := buildDaemon(ctx)
		if err != nil {
			return nil, err
		}
		e.daemonBin, e.buildS = bin, s
	}
	if traced {
		return runTraced(ctx, e, w, seed, d)
	}

	var in *instance
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		if in != nil {
			in.stop()
		}
		t0 := time.Now()
		var err error
		if in, err = w.setup(ctx, e, seed, d); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer in.stop()

	runtime.GC() // start every measured window from a collected heap
	alloc0, err := in.totalAlloc(ctx)
	if err != nil {
		return nil, err
	}
	samples := in.measure(ctx, d)
	alloc1, err := in.totalAlloc(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sum := summarize(samples, w.tailPct)
	res := &result{
		Workload: w.name, Attempted: sum.attempted, Failed: sum.failed, Failures: sum.failures,
		Metrics: map[string]float64{
			"p50_ms":          sum.p50,
			"tail_ms":         sum.tail,
			"ops_per_s":       sum.opsPerS,
			"alloc_mb_per_op": float64(alloc1-alloc0) / 1e6 / float64(max(sum.attempted, 1)),
			"setup_s":         median(setups),
		},
		Info: map[string]float64{
			"samples": float64(sum.attempted), "tail_percentile": float64(sum.tailPct),
			"fail_ratio": float64(sum.failed) / float64(max(sum.attempted, 1)),
		},
	}
	if w.served {
		res.Info["build_s"] = e.buildS
	}
	return res, nil
}

// runTraced is the per-layer pass: the workload-independent probes, then
// (served workloads) a stretch of the real load with a span per request
// and the daemon's own counters scraped around it, then a replay of the
// workload's jobs in this process, stage by stage.
func runTraced(ctx context.Context, e *env, w *workload, seed int64, d time.Duration) (*result, error) {
	in, err := w.setup(ctx, e, seed, d)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer in.stop()

	m := map[string]float64{}
	for _, def := range perLayer {
		m[def.name] = 0
	}
	rng := rand.New(rand.NewSource(seed))
	kernelProbes(rng, m)
	schedProbes(e.nproc, m)
	square, _ := generate(rng, 768, 768) // the values_square shape
	if err := distProbe(denseOf(square), m); err != nil {
		return nil, fmt.Errorf("dist probe: %w", err)
	}

	tr := newTracer()
	res := &result{Workload: w.name, Traced: true, Metrics: m, Info: map[string]float64{}}
	begin := time.Now()
	nextOp := 0
	if w.served {
		// The served stretch takes the first 40% of the run; the replay
		// below needs the rest for its five-plus jobs.
		samples, err := servedStretch(ctx, in, d*2/5, tr, m)
		if err != nil {
			return nil, err
		}
		sum := summarize(samples, w.tailPct)
		res.Attempted, res.Failed, res.Failures = sum.attempted, sum.failed, sum.failures
		m["loadgen.late_p95_ms"] = sum.latePct95
		nextOp = len(samples)
	}

	rp := newReplay(tr, e.nproc, w.served)
	defer rp.close()
	for k := 0; ctx.Err() == nil && (k < 2 || time.Since(begin) < d); k++ {
		idx := nextOp + k
		if in.due != nil {
			// Open loop: replay the jobs the served stretch posted.
			if idx = k; k >= nextOp {
				break
			}
		}
		res.Attempted++
		if err := rp.job(ctx, nextOp+k, w.name, in.job(idx)); err != nil {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("replay op %d: %v", nextOp+k, err))
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rp.metrics(w.name, m)
	res.Info["replayed_ops"] = float64(len(rp.ops))
	res.spans = tr.spans
	return res, nil
}

// servedStretch runs the workload's real load for d, records one span
// tree per request from the load generator's own timestamps, and fills
// the metrics only the daemon can report.
func servedStretch(ctx context.Context, in *instance, d time.Duration, tr *tracer, m map[string]float64) ([]sample, error) {
	vars0, err := in.daemon.vars(ctx)
	if err != nil {
		return nil, err
	}
	wait0, err := in.daemon.queueWait(ctx)
	if err != nil {
		return nil, err
	}
	samples := in.measure(ctx, d)
	vars1, err := in.daemon.vars(ctx)
	if err != nil {
		return nil, err
	}
	wait1, err := in.daemon.queueWait(ctx)
	if err != nil {
		return nil, err
	}

	var server, overhead []float64
	byClass := map[string][]float64{}
	for _, s := range samples {
		root := tr.add(0, s.op, "request", s.due, s.end, map[string]any{"class": s.class, "server_ms": s.serverMs})
		tr.add(root, s.op, "loadgen.wait", s.due, s.start, nil)
		tr.add(root, s.op, "client.post", s.start, s.end, nil)
		if s.rejected {
			m["serve.rejected"]++
		}
		if s.err != nil {
			continue
		}
		server = append(server, s.serverMs)
		overhead = append(overhead, ms(s.end.Sub(s.start))-s.serverMs)
		byClass[s.class] = append(byClass[s.class], s.latencyMs())
	}
	m["bidiagd.server_p50_ms"] = median(server)
	m["bidiagd.overhead_p50_ms"] = median(overhead)
	m["serve.miss_p50_ms"] = median(byClass["miss"])
	m["serve.hit_p50_ms"] = median(byClass["hit"])
	m["serve.svd_p50_ms"] = median(byClass["svd"])

	delta := func(k string) float64 { return vars1[k] - vars0[k] }
	if lookups := delta("cache_hits") + delta("cache_misses"); lookups > 0 {
		m["serve.cache_hit_ratio"] = delta("cache_hits") / lookups
	}
	m["serve.gang_jobs"] = delta("gang_jobs")
	m["plan.explore"] = delta("plan_decisions.explore")
	m["plan.tuned"] = delta("plan_decisions.tuned")
	m["plan.promotions"] = delta("plan_promotions")
	waits := minus(wait1, wait0)
	m["serve.queue_wait_p50_ms"] = 1e3 * waits.Quantile(0.5)
	m["serve.queue_wait_p95_ms"] = 1e3 * waits.Quantile(0.95)
	return samples, nil
}

// replay runs jobs in this process: the wire codec and the service on
// the same bytes the daemon would see, the real library call untraced,
// and its stage-by-stage mirror with spans.
type replay struct {
	tr   *tracer
	svc  *bidiag.Service // the daemon's service in this process; nil for library workloads
	seen map[[2]int]bool // shapes whose cold AutoPlan has been timed

	ops           []replayedOp
	reqMB, respKB []float64
	worst         svdErr // worst accuracy seen
}

// replayedOp is what the spans of one replayed operation do not carry.
type replayedOp struct {
	op         int
	cnt        stageCounts
	workers    int
	untracedMs float64
}

func newReplay(tr *tracer, nproc int, served bool) *replay {
	rp := &replay{tr: tr, seen: map[[2]int]bool{}}
	if served {
		// As the daemon configures it: defaults, -workers nproc.
		rp.svc = bidiag.NewService(&bidiag.ServiceConfig{Workers: nproc})
	}
	return rp
}

func (rp *replay) close() {
	if rp.svc != nil {
		rp.svc.Close()
	}
}

func (rp *replay) job(ctx context.Context, op int, name string, j *job) error {
	tr := rp.tr
	dense := j.dense()
	opts, err := j.libOptions()
	if err != nil {
		return err
	}
	rows, cols := max(j.a.Rows, j.a.Cols), min(j.a.Rows, j.a.Cols)

	// The planner's model pick is memoized per shape, so only the first
	// call for a shape pays for it — which is what a fresh shape costs a
	// served request. It has to run before anything else plans the shape.
	if shape := [2]int{rows, cols}; !rp.seen[shape] {
		rp.seen[shape] = true
		base := tr.begin(0, op, "baseline")
		timed(tr, base, op, "plan.autoplan", func() { _, err = bidiag.AutoPlan(rows, cols, nil) })
		tr.end(base)
		if err != nil {
			return err
		}
	}

	if rp.svc != nil {
		if err := rp.wire(ctx, op, j); err != nil {
			return err
		}
	}

	// The real entry point, untraced, on the same input.
	t0 := time.Now()
	if j.kind == bidiag.JobSVD {
		_, err = bidiag.SVDCtx(ctx, dense, opts)
	} else {
		_, err = bidiag.SingularValuesCtx(ctx, dense, opts)
	}
	if err != nil {
		return err
	}
	rec := replayedOp{op: op, untracedMs: ms(time.Since(t0))}

	sp, err := lower(rows, cols, opts)
	if err != nil {
		return err
	}
	rec.workers = sp.workers
	if j.kind == bidiag.JobSVD {
		u, s, v, cnt, err := stagedSVD(tr, op, name, j.a, sp)
		if err != nil {
			return err
		}
		rec.cnt = cnt
		rp.ops = append(rp.ops, rec)
		e, err := svdErrors(j.a, u, s, v, j.sigma)
		if err != nil {
			return err
		}
		rp.worst = rp.worst.worst(e)
		return e.check()
	}
	sv, cnt, err := stagedValues(tr, op, name, j.a, sp)
	if err != nil {
		return err
	}
	rec.cnt = cnt
	rp.ops = append(rp.ops, rec)
	e, err := valuesErr(sv, j.sigma)
	if err != nil {
		return err
	}
	rp.worst = rp.worst.worst(svdErr{values: e})
	return svdErr{values: e}.check()
}

// wire runs the request through the client's encoder, the daemon's
// decoder and an in-process service, each under its own span.
func (rp *replay) wire(ctx context.Context, op int, j *job) error {
	tr := rp.tr
	root := tr.begin(0, op, "wire")
	defer tr.end(root)
	var (
		blob  []byte
		req   httpapi.Job
		dense *bidiag.Dense
		opts  *bidiag.Options
		res   *bidiag.JobResult
		err   error
	)
	timed(tr, root, op, "client.encode", func() { blob, err = json.Marshal(j.wireJob()) })
	if err != nil {
		return err
	}
	timed(tr, root, op, "httpapi.decode", func() {
		if err = json.NewDecoder(bytes.NewReader(blob)).Decode(&req); err != nil {
			return
		}
		if dense, err = req.Dense(); err != nil {
			return
		}
		opts, err = req.Options.ToOptions()
	})
	if err != nil {
		return err
	}
	timed(tr, root, op, "service.cachekey", func() { bidiag.CacheKey(j.kind, dense, opts) })
	timed(tr, root, op, "service.do", func() {
		res, err = rp.svc.Do(ctx, bidiag.JobRequest{Kind: j.kind, A: dense, Opts: opts})
	})
	if err != nil {
		return err
	}
	// The daemon encodes exactly this struct with the same encoder, so
	// the length is the response body's (less the trailing newline).
	var body any = httpapi.ValuesResponse{S: res.Values, CacheHit: res.CacheHit}
	if j.kind == bidiag.JobSVD {
		body = httpapi.SVDResponse{U: httpapi.FromDense(res.SVD.U), S: res.SVD.S, V: httpapi.FromDense(res.SVD.V), CacheHit: res.CacheHit}
	}
	out, err := json.Marshal(body)
	if err != nil {
		return err
	}
	rp.reqMB = append(rp.reqMB, float64(len(blob))/1e6)
	rp.respKB = append(rp.respKB, float64(len(out))/1e3)
	return nil
}

// metrics folds the replay's spans and counts into per-layer metrics:
// the median over the replayed operations of each layer's time.
func (rp *replay) metrics(root string, m map[string]float64) {
	// dur[name][op] is the time operation op spent in spans called name.
	dur := map[string]map[int]float64{}
	for _, s := range rp.tr.spans {
		if dur[s.Name] == nil {
			dur[s.Name] = map[int]float64{}
		}
		dur[s.Name][s.Op] += ms(s.End - s.Start)
	}
	med := func(name string) float64 {
		var xs []float64
		for _, v := range dur[name] {
			xs = append(xs, v)
		}
		return median(xs)
	}
	for _, name := range []string{
		"tile.from_dense", "tile.extract_band", "plan.autoplan", "pipeline.build",
		"ge2bnd.run", "ge2bnd.run1", "band.build", "band.run", "band.run1", "band.seq", "bdsqr.solve",
		"svd.ge2bnd_rec", "jacobi.svd", "core.apply_left", "core.apply_right",
		"client.encode", "httpapi.decode", "service.cachekey",
	} {
		m[name+"_ms"] = med(name)
	}
	m["service.do_p50_ms"] = med("service.do")

	// Rates and ratios are formed per operation, then their median taken.
	var tasks, bandTasks, gf, eff, bandGF, usPerTask, untraced, staged []float64
	for _, r := range rp.ops {
		run, run1, brun := dur["ge2bnd.run"][r.op], dur["ge2bnd.run1"][r.op], dur["band.run"][r.op]
		if rec := dur["svd.ge2bnd_rec"][r.op]; rec > 0 {
			run = rec
		}
		tasks = append(tasks, float64(r.cnt.ge2bndTasks))
		gf = append(gf, r.cnt.ge2bndFlops/1e6/run)
		if r.cnt.bandTasks > 0 {
			bandTasks = append(bandTasks, float64(r.cnt.bandTasks))
			eff = append(eff, run1/(float64(r.workers)*run))
			bandGF = append(bandGF, r.cnt.bandFlops/1e6/brun)
			usPerTask = append(usPerTask, 1e3*brun/float64(r.cnt.bandTasks))
		}
		untraced = append(untraced, r.untracedMs)
		staged = append(staged, dur[root][r.op])
	}
	m["pipeline.tasks"] = median(tasks)
	m["band.tasks"] = median(bandTasks)
	m["ge2bnd.gflops"] = median(gf)
	m["ge2bnd.par_eff"] = median(eff)
	m["band.gflops"] = median(bandGF)
	m["band.us_per_task"] = median(usPerTask)
	m["httpapi.req_mb"] = median(rp.reqMB)
	m["httpapi.resp_kb"] = median(rp.respKB)
	m["values.err_eps"] = rp.worst.values
	m["svd.residual_eps"], m["svd.orth_u_eps"], m["svd.orth_v_eps"] = rp.worst.residual, rp.worst.orthU, rp.worst.orthV
	if base := median(untraced); base > 0 {
		m["trace.overhead_pct"] = 100 * (median(staged) - base) / base
	}
}

// traceFile is where a workload's spans are written.
func traceFile(workload string) string {
	return filepath.Join(outDir, "trace_"+workload+".json")
}
