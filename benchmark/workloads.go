package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/client"
	"github.com/tiled-la/bidiag/httpapi"
	"github.com/tiled-la/bidiag/internal/latms"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/plan"
)

// Every input is latms.Generate(seed, Geometric, cond) so its exact
// spectrum is known to the correctness oracle.
const inputCond = 1e6

// warmupOps is how many unmeasured operations a closed-loop workload
// runs first: the Go heap reaches its working size and the pools their
// workspaces within the first two or three calls.
const warmupOps = 3

// job is one unit of work: a matrix, what to compute from it, and (for
// served workloads) how the request asks for it.
type job struct {
	kind  bidiag.JobKind
	class string           // served traffic class: miss, hit or svd
	a     *nla.Matrix      // the matrix as submitted (served jobs may be wide)
	sigma []float64        // its prescribed singular values
	wire  *httpapi.Options // served jobs: nil hands every knob to the planner
	hot   int              // index of the hot matrix a hit repeats, else -1
}

func (j *job) dense() *bidiag.Dense { return denseOf(j.a) }

// denseOf wraps a generated matrix (LD == Rows) without copying.
func denseOf(a *nla.Matrix) *bidiag.Dense {
	d, err := bidiag.NewDenseFromColMajor(a.Rows, a.Cols, a.Data)
	if err != nil {
		panic(err) // generated matrices are always consistent
	}
	return d
}

func (j *job) wireJob() httpapi.Job {
	return httpapi.Job{Matrix: httpapi.Matrix{M: j.a.Rows, N: j.a.Cols, Data: j.a.Data}, Options: j.wire}
}

// libOptions are the library options equivalent to the job's request.
func (j *job) libOptions() (*bidiag.Options, error) {
	if j.class == "" {
		return nil, nil // library workloads run the defaults
	}
	return j.wire.ToOptions()
}

// generate returns an m×n input with the benchmark's prescribed
// spectrum; wide shapes are generated tall and transposed.
func generate(rng *rand.Rand, m, n int) (*nla.Matrix, []float64) {
	if m < n {
		a, sigma := latms.Generate(rng, n, m, latms.Geometric, inputCond)
		return a.Transpose(), sigma
	}
	return latms.Generate(rng, m, n, latms.Geometric, inputCond)
}

// workload is one row of the benchmark: what runs, how load is offered,
// and why it is there (the why is BENCHMARK.json's).
type workload struct {
	name string
	// tailPct is the tail percentile at the nominal run length, chosen
	// by the ten-samples-beyond rule from the op count that run holds.
	tailPct int
	served  bool
	setup   func(ctx context.Context, e *env, seed int64, d time.Duration) (*instance, error)
}

// env is what every workload of an invocation shares.
type env struct {
	nproc     int
	daemonBin string
	buildS    float64
}

// instance is a workload after set-up: inputs generated, daemon up,
// warm-up done.
type instance struct {
	// job returns the i-th job. Closed-loop workloads derive each job
	// from the previous one, so calls must be made in order.
	job func(i int) *job
	// op executes job i the way the workload's caller would.
	op opFunc
	// due is the open-loop arrival schedule; nil means one closed-loop
	// caller.
	due      []time.Duration
	inflight int
	daemon   *daemon
	// hotRefs are the miss responses of the hot matrices, which every
	// later cache hit must equal bitwise.
	hotRefs [][]float64
}

func (in *instance) stop() {
	if in.daemon != nil {
		in.daemon.stop()
	}
}

// measure offers load for d and returns the samples.
func (in *instance) measure(ctx context.Context, d time.Duration) []sample {
	if in.due == nil {
		return closedLoop(ctx, d, in.op)
	}
	// The schedule was laid out for the full run; a shorter window (the
	// traced pass) offers its first part.
	due := in.due
	for len(due) > 0 && due[len(due)-1] >= d {
		due = due[:len(due)-1]
	}
	return openLoop(ctx, due, in.inflight, in.op)
}

// totalAlloc reads the cumulative allocation of the process that does
// the work: the daemon for served workloads, this process otherwise.
func (in *instance) totalAlloc(ctx context.Context) (uint64, error) {
	if in.daemon != nil {
		return in.daemon.totalAlloc(ctx)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, nil
}

var workloads = []workload{
	libraryWorkload("values_square", 768, 768, bidiag.JobSingularValues, 50),
	libraryWorkload("values_tall", 8192, 256, bidiag.JobSingularValues, 75),
	libraryWorkload("svd_square", 256, 256, bidiag.JobSVD, 50),
	{name: "serve_small_open", tailPct: 90, served: true, setup: setupServeSmallOpen},
	{name: "serve_tall", tailPct: 50, served: true, setup: setupServeTall},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runLibrary is one library call on default options (Workers = nproc).
func runLibrary(ctx context.Context, j *job, d *bidiag.Dense) outcome {
	if j.kind == bidiag.JobSVD {
		r, err := bidiag.SVDCtx(ctx, d, nil)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{verify: func() error {
			return checkSVD(j.a, matrixOf(httpapi.FromDense(r.U)), r.S, matrixOf(httpapi.FromDense(r.V)), j.sigma)
		}}
	}
	sv, err := bidiag.SingularValuesCtx(ctx, d, nil)
	return outcome{err: err, verify: func() error { return checkValues(sv, j.sigma) }}
}

// libraryWorkload is one caller invoking the library on one m×n input
// in a closed loop.
func libraryWorkload(name string, m, n int, kind bidiag.JobKind, tailPct int) workload {
	setup := func(ctx context.Context, _ *env, seed int64, _ time.Duration) (*instance, error) {
		a, sigma := generate(rand.New(rand.NewSource(seed)), m, n)
		j := &job{kind: kind, a: a, sigma: sigma, hot: -1}
		d := j.dense()
		in := &instance{
			job: func(int) *job { return j },
			op:  func(ctx context.Context, _ int) outcome { return runLibrary(ctx, j, d) },
		}
		for i := 0; i < warmupOps; i++ {
			if o := in.op(ctx, i); o.err != nil {
				return nil, fmt.Errorf("warm-up: %w", o.err)
			}
		}
		return in, nil
	}
	return workload{name: name, tailPct: tailPct, setup: setup}
}

// post submits job j to the daemon and wraps the response in the
// correctness oracle for its class.
func (in *instance) post(ctx context.Context, j *job) outcome {
	o := outcome{class: j.class}
	fail := func(err error) outcome {
		var api *client.APIError
		o.rejected = errors.As(err, &api) && (api.Status == 429 || api.Status >= 500)
		o.err = err
		return o
	}
	if j.kind == bidiag.JobSVD {
		r, err := in.daemon.cl.PostSVD(ctx, j.wireJob(), false)
		if err != nil {
			return fail(err)
		}
		o.serverMs = r.Ms
		o.verify = func() error {
			if len(r.U.Data) != r.U.M*r.U.N || len(r.V.Data) != r.V.M*r.V.N {
				return errors.New("response factors have inconsistent shapes")
			}
			return checkSVD(j.a, matrixOf(r.U), r.S, matrixOf(r.V), j.sigma)
		}
		return o
	}
	r, err := in.daemon.cl.PostValues(ctx, j.wireJob(), false)
	if err != nil {
		return fail(err)
	}
	o.serverMs = r.Ms
	// The first post of a hot matrix (during warm-up, one at a time per
	// matrix) is the miss that fills the cache and sets the reference.
	fills := j.hot >= 0 && in.hotRefs[j.hot] == nil
	if fills {
		in.hotRefs[j.hot] = r.S
	}
	o.verify = func() error {
		if j.hot < 0 || fills {
			return checkValues(r.S, j.sigma)
		}
		if !r.CacheHit {
			return errors.New("repeat of a hot matrix was not served from the cache")
		}
		if !sameBits(r.S, in.hotRefs[j.hot]) {
			return errors.New("cache hit differs bitwise from the miss that filled the cache")
		}
		return nil
	}
	return o
}

// setupServeTall starts a daemon and prepares one 4096×256 matrix. Each
// request flips the sign of one more column: the spectrum is unchanged,
// the content — and with it the cache key — is new, so every request is
// a miss without holding forty 8 MB matrices.
func setupServeTall(ctx context.Context, e *env, seed int64, _ time.Duration) (*instance, error) {
	const m, n = 4096, 256
	d, err := startDaemon(ctx, e.daemonBin, e.nproc)
	if err != nil {
		return nil, err
	}
	a, sigma := generate(rand.New(rand.NewSource(seed)), m, n)
	j := &job{kind: bidiag.JobSingularValues, class: "miss", a: a, sigma: sigma, wire: &httpapi.Options{}, hot: -1}
	flips := 0
	in := &instance{daemon: d}
	in.job = func(int) *job {
		col := a.Data[(flips%n)*a.LD:][:m]
		nla.Scal(-1, col)
		flips++
		return j
	}
	in.op = func(ctx context.Context, i int) outcome { return in.post(ctx, in.job(i)) }
	for i := 0; i < warmupOps; i++ {
		if o := in.op(ctx, i); o.err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return in, nil
}

// The open-loop mix is dealt in blocks of twenty requests — 12 distinct
// values jobs, 5 repeats of hot matrices, 3 SVD jobs, shuffled by the
// seed — and the distinct jobs of a block take the twelve shapes below,
// so every run offers the same work in a different order. The SVD share
// is 15% so that the tail percentile (p90 of 120 requests) lies inside
// the SVD class, where latencies are dense: at 10% it would sit on the
// edge of the class, and the few requests a burst delays would throw it
// into the sparse region beyond. The rate is 8/s because at 12/s the
// two in-flight slots fill often enough that pile-ups behind a pair of
// SVD jobs, not the daemon, decide the tail (p90 spread over ten seeds:
// 18% at 12/s, 7% at 8/s).
const (
	openRate    = 8.0 // requests per second
	blockSize   = 20
	blockHits   = 5
	blockSVDs   = 3
	hotMatrices = 8
	svdDim      = 128
	// warmPerProfile is one more than the nine measured jobs the tuner
	// needs to promote a profile (3 candidates × 3 samples).
	warmPerProfile = 10
)

var missShapes = [blockSize - blockHits - blockSVDs][2]int{
	{128, 128}, {160, 128}, {192, 160}, {256, 128}, {224, 192}, {256, 256}, {192, 192},
	{144, 208}, {128, 256}, {240, 176}, {176, 240}, {208, 144},
}

// setupServeSmallOpen starts a daemon, generates the Poisson schedule
// and one job per arrival, and warms up with requests that include the
// first (miss) post of each hot matrix.
func setupServeSmallOpen(ctx context.Context, e *env, seed int64, d time.Duration) (*instance, error) {
	dm, err := startDaemon(ctx, e.daemonBin, e.nproc)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &instance{daemon: dm, due: poissonSchedule(rng, openRate, d), inflight: e.nproc}

	newJob := func(kind bidiag.JobKind, class string, m, n int) *job {
		a, sigma := generate(rng, m, n)
		return &job{kind: kind, class: class, a: a, sigma: sigma, hot: -1}
	}
	hot := make([]*job, hotMatrices)
	for h := range hot {
		hot[h] = newJob(bidiag.JobSingularValues, "hit", missShapes[h][0], missShapes[h][1])
		hot[h].hot = h
	}
	in.hotRefs = make([][]float64, hotMatrices)
	block := func() []*job {
		var b []*job
		for _, s := range missShapes {
			b = append(b, newJob(bidiag.JobSingularValues, "miss", s[0], s[1]))
		}
		for i := 0; i < blockHits; i++ {
			b = append(b, hot[rng.Intn(hotMatrices)])
		}
		for i := 0; i < blockSVDs; i++ {
			b = append(b, newJob(bidiag.JobSVD, "svd", svdDim, svdDim))
		}
		rng.Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
		return b
	}
	var jobs []*job
	for len(jobs) < len(in.due) {
		jobs = append(jobs, block()...)
	}
	in.job = func(i int) *job { return jobs[i] }
	in.op = func(ctx context.Context, i int) outcome { return in.post(ctx, jobs[i]) }

	// Warm-up: warmPerProfile jobs on each plan profile the mix touches —
	// the shapes grouped as the tuner buckets them, plus the SVD profile —
	// so that every profile is promoted and the measured window runs
	// tuned plans. The hot matrices lead their groups: their responses
	// become the references every later hit is compared with.
	groups := map[plan.Key][]int{} // profile → indices into missShapes
	var order []plan.Key
	for s, sh := range missShapes {
		k := plan.KeyOf(plan.Request{M: sh[0], N: sh[1]})
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}
	warm := append([]*job(nil), hot...)
	for _, k := range order {
		have := 0
		for _, s := range groups[k] {
			if s < hotMatrices {
				have++
			}
		}
		for i := 0; have < warmPerProfile; i, have = i+1, have+1 {
			sh := missShapes[groups[k][i%len(groups[k])]]
			warm = append(warm, newJob(bidiag.JobSingularValues, "miss", sh[0], sh[1]))
		}
	}
	for i := 0; i < warmPerProfile; i++ {
		warm = append(warm, newJob(bidiag.JobSVD, "svd", svdDim, svdDim))
	}
	// All due at once with nproc in flight: nproc closed-loop clients.
	for _, s := range openLoop(ctx, make([]time.Duration, len(warm)), e.nproc,
		func(ctx context.Context, i int) outcome { return in.post(ctx, warm[i]) }) {
		err := s.err
		if err == nil {
			err = s.verify()
		}
		if err != nil {
			dm.stop()
			return nil, fmt.Errorf("warm-up request %d: %w", s.op, err)
		}
	}
	return in, nil
}
