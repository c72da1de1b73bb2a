package bidiag

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/tile"
)

// The tests in this file check that recycling a job's arena chunks never
// shows in a result: a job whose chunks last held another job's tiles and
// T factors computes, bit for bit, what it computes on fresh memory.

// freshChunks empties the process-wide chunk and buffer pools, so the
// next job draws zeroed memory. A values job's templates age on a
// finalizer that may run later, so TestTemplateReuse compares with
// graphs built for the call instead.
func freshChunks() { nla.DropIdle() }

// reuseCall runs one entry point and flattens what it returns.
type reuseCall func(a *Dense, o *Options) ([]float64, error)

func valuesCall(a *Dense, o *Options) ([]float64, error) { return SingularValues(a, o) }

func svdCall(a *Dense, o *Options) ([]float64, error) {
	r, err := SVD(a, o)
	if err != nil {
		return nil, err
	}
	return slices.Concat(r.U.inner.Data, r.S, r.V.inner.Data), nil
}

func bandCall(a *Dense, o *Options) ([]float64, error) {
	b, err := GE2BND(a, o)
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < b.N(); i++ {
		for j := i; j <= min(i+b.Bandwidth(), b.N()-1); j++ {
			out = append(out, b.At(i, j))
		}
	}
	return out, nil
}

// jobBits flattens a service result: the values, then U and V if any.
func jobBits(r *JobResult) []float64 {
	if r.SVD == nil {
		return r.Values
	}
	return slices.Concat(r.SVD.U.inner.Data, r.Values, r.SVD.V.inner.Data)
}

// grid2x1 runs a one-shot call on two in-process nodes.
var grid2x1 = &DistOptions{GridRows: 2, GridCols: 1}

// TestReuseNeverShows computes B on fresh chunks, then A, then B again on
// the chunks A left behind, for every entry point and algorithm shape, on
// shared memory and on a grid of nodes.
func TestReuseNeverShows(t *testing.T) {
	const nb = 16
	for _, c := range []struct {
		name string
		m, n int
		tree Tree
		call reuseCall
		grid *DistOptions
	}{
		{"values/tall", 320, 48, FlatTS, valuesCall, nil}, // R-BIDIAG by Chan's rule
		{"values/square", 96, 96, Auto, valuesCall, nil},
		{"values/wide", 48, 112, Auto, valuesCall, nil},
		{"values/ragged", 5*nb + 1, 60, Greedy, valuesCall, nil}, // m = NB·p + 1
		{"svd/square", 64, 64, Auto, svdCall, nil},
		{"svd/wide", 40, 72, FlatTT, svdCall, nil},
		{"svd/tall", 160, 48, Greedy, svdCall, nil},
		{"ge2bnd/tall", 320, 48, FlatTT, bandCall, nil},
		{"ge2bnd/square", 80, 80, Auto, bandCall, nil},
		{"grid/values/tall", 320, 48, Auto, valuesCall, grid2x1},
		{"grid/values/square", 96, 96, Auto, valuesCall, grid2x1},
		{"grid/svd/square", 64, 64, Auto, svdCall, grid2x1},
		{"grid/svd/wide", 40, 72, Auto, svdCall, grid2x1},
	} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				o := &Options{NB: nb, Tree: c.tree, Workers: workers, Distributed: c.grid}
				b, a := randomDense(1, c.m, c.n), randomDense(2, c.m, c.n)
				freshChunks()
				want, err := c.call(b, o)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.call(a, o); err != nil {
					t.Fatal(err)
				}
				got, err := c.call(b, o)
				if err != nil {
					t.Fatal(err)
				}
				if !bitwiseEqual(got, want) {
					t.Fatal("the result on recycled chunks differs from the one on fresh chunks")
				}
			})
		}
	}
}

// TestReuseAcrossServiceJobs runs a tall values job and a square SVD job
// side by side on one service, round after round, with other inputs in
// between: the jobs draw and return chunks concurrently.
func TestReuseAcrossServiceJobs(t *testing.T) {
	svc := NewService(&ServiceConfig{Workers: 2, MaxInFlight: 2, CacheBytes: -1})
	defer svc.Close()
	round := func(seed int64) [][]float64 {
		var jobs []*Job
		for _, req := range []JobRequest{
			{A: randomDense(seed, 320, 48), Opts: &Options{NB: 16, Tree: FlatTS}},
			{Kind: JobSVD, A: randomDense(seed+1, 72, 72), Opts: &Options{NB: 16}},
		} {
			j, err := svc.Submit(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		var out [][]float64
		for _, j := range jobs {
			res, err := j.Wait()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, jobBits(res))
		}
		return out
	}
	freshChunks()
	want := round(1)
	for i := int64(0); i < 3; i++ {
		round(10 + 2*i)
		for k, got := range round(1) {
			if !bitwiseEqual(got, want[k]) {
				t.Fatalf("round %d: job %d differs from its first run", i, k)
			}
		}
	}
}

// TestReuseAfterFailedJob fails a job in the middle of its graph — its
// ctx cancelled, or its kernel panicking, right after a task wrote its
// tiles — and checks that the jobs of its key after it compute bitwise
// what they computed before it: values and SVD jobs on shared memory, on
// the service and one shot, and the same on a grid of nodes, one shot.
// The failing job runs through the service's dispatcher in every case.
func TestReuseAfterFailedJob(t *testing.T) {
	cases := []struct {
		name string
		kind JobKind
		m, n int
		opts *Options
	}{
		{"values", JobSingularValues, 320, 48, &Options{NB: 16, Tree: FlatTS, Workers: 2}},
		{"svd", JobSVD, 96, 64, &Options{NB: 16, Tree: FlatTS, Workers: 2}},
		{"grid/values", JobSingularValues, 320, 48, &Options{NB: 16, Workers: 2, Distributed: grid2x1}},
		{"grid/svd", JobSVD, 96, 64, &Options{NB: 16, Workers: 2, Distributed: grid2x1}},
	}
	for _, fail := range []string{"cancel", "panic"} {
		t.Run(fail, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					b := randomDense(1, c.m, c.n)
					call := valuesCall
					if c.kind == JobSVD {
						call = svdCall
					}
					want, err := call(b, c.opts)
					if err != nil {
						t.Fatal(err)
					}
					svc := NewService(&ServiceConfig{Workers: 2, CacheBytes: -1})
					defer svc.Close()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					req := request{build: func() (job, error) {
						o, src, tree, transposed, err := resolve(randomDense(2, c.m, c.n), c.opts)
						if err != nil {
							return job{}, err
						}
						j, err := newJob(c.kind, src, o, tree, transposed)
						if err != nil {
							return job{}, err
						}
						tasks := j.plan.Graph.Tasks
						task := tasks[len(tasks)/2]
						run := task.Run
						task.Run = func(ws *nla.Workspace) {
							run(ws)
							if fail == "cancel" {
								cancel()
							} else {
								panic("injected kernel failure")
							}
						}
						return j, nil
					}}
					_, err = doRequest(svc, ctx, req)
					if err == nil || (fail == "cancel") != errors.Is(err, context.Canceled) {
						t.Fatalf("the failing job returned %v", err)
					}
					for i := 0; i < 2; i++ {
						if c.opts.Distributed == nil {
							res, err := svc.Do(context.Background(), JobRequest{Kind: c.kind, A: b, Opts: c.opts})
							if err != nil {
								t.Fatal(err)
							}
							if !bitwiseEqual(jobBits(res), want) {
								t.Fatalf("service job %d after the failed one differs", i)
							}
						}
						got, err := call(b, c.opts)
						if err != nil {
							t.Fatal(err)
						}
						if !bitwiseEqual(got, want) {
							t.Fatalf("one-shot call %d after the failed job differs", i)
						}
					}
				})
			}
		})
	}
}

// TestTemplateReuse runs jobs B, A, B through the templates of their key,
// GE2BND graph and chase graph, one shot and as service jobs with the
// cache off: both B results must equal, bit for bit, B on graphs built
// for it alone. It covers values and SVD jobs for every algorithm shape
// and tree, and one-shot values and SVD jobs on a grid of nodes.
func TestTemplateReuse(t *testing.T) {
	const nb = 16
	svc := NewService(&ServiceConfig{Workers: 2, MaxInFlight: 1, CacheBytes: -1})
	defer svc.Close()
	served := func(kind JobKind) reuseCall {
		return func(a *Dense, o *Options) ([]float64, error) {
			res, err := svc.Do(context.Background(), JobRequest{Kind: kind, A: a, Opts: o})
			if err != nil {
				return nil, err
			}
			return jobBits(res), nil
		}
	}
	type entry struct {
		name string
		kind JobKind
		call reuseCall
	}
	entries := []entry{
		{"one-shot", JobSingularValues, valuesCall},
		{"service", JobSingularValues, served(JobSingularValues)},
		{"svd/one-shot", JobSVD, svdCall},
		{"svd/service", JobSVD, served(JobSVD)},
	}
	for _, c := range []struct {
		name string
		m, n int
	}{
		{"tall", 320, 48}, // R-BIDIAG by Chan's rule
		{"square", 96, 96},
		{"wide", 48, 112},
		{"ragged", 5*nb + 1, 60}, // m = NB·p + 1
	} {
		check := func(t *testing.T, e entry, o *Options) {
			b, a := randomDense(1, c.m, c.n), randomDense(2, c.m, c.n)
			want := freshJob(t, e.kind, b, o)
			for i, in := range []*Dense{b, a, b} {
				got, err := e.call(in, o)
				if err != nil {
					t.Fatal(err)
				}
				if in == b && !bitwiseEqual(got, want) {
					t.Fatalf("job %d, B on a template, differs from B on fresh graphs", i)
				}
			}
		}
		for _, tree := range []Tree{FlatTS, FlatTT, Greedy, Auto} {
			for _, e := range entries {
				t.Run(fmt.Sprintf("%s/%v/%s", c.name, tree, e.name), func(t *testing.T) {
					check(t, e, &Options{NB: nb, Tree: tree, Workers: 2})
				})
			}
		}
		for _, e := range []entry{entries[0], entries[2]} {
			t.Run(fmt.Sprintf("%s/grid/%s", c.name, e.name), func(t *testing.T) {
				check(t, e, &Options{NB: nb, Workers: 2, Distributed: grid2x1})
			})
		}
	}
}

// freshJob computes a's job of kind in order on graphs built for the call
// alone, as a key's first job builds them, and flattens the result as
// jobBits does.
func freshJob(t *testing.T, kind JobKind, a *Dense, o *Options) []float64 {
	t.Helper()
	opts, src, tree, transposed, err := prepare(a, o)
	if err != nil {
		t.Fatal(err)
	}
	var key pipeline.Job = pipeline.Local{
		NB: opts.NB, RBidiag: useRBidiag(opts, src.Rows, src.Cols),
		Tree: tree, Gamma: opts.Gamma, Cores: opts.Workers, Gemm: nla.Blocking(opts.Gemm),
	}
	if opts.Distributed != nil {
		if key, err = gridJob(opts, src.Rows, src.Cols); err != nil {
			t.Fatal(err)
		}
	}
	spec := key.Spec(src.Rows, src.Cols)
	spec.Data = tile.FromDense(src, opts.NB)
	if kind == JobSVD {
		spec.Config.Recorder = &core.Recorder{Blocking: spec.Config.Blocking}
	}
	p := pipeline.Build(spec)
	p.Recorder = spec.Config.Recorder
	if _, err := pipeline.Run(p, pipeline.Sequential{}); err != nil {
		t.Fatal(err)
	}
	if kind == JobSVD {
		res, err := finishSVD(context.Background(), p, pipeline.Sequential{}, transposed)
		if err != nil {
			t.Fatal(err)
		}
		return slices.Concat(res.U.inner.Data, res.S, res.V.inner.Data)
	}
	s, err := (&Band{b: p.Tiles.ExtractBand(opts.NB), window: opts.BND2BDWindow}).SingularValues()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOneShotNumericalFailure: an 8×8 input of entries uniform in
// ±1e308 is finite, but its reduction overflows to NaN singular values.
// The one-shot call fails with ErrNumerical, as a service job does, and
// gives no template back, so the next call of the same key computes,
// bit for bit, what graphs built for it alone compute.
func TestOneShotNumericalFailure(t *testing.T) {
	o := &Options{NB: 4, Workers: 1}
	rng := rand.New(rand.NewSource(1))
	huge := NewDense(8, 8)
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			huge.Set(i, j, (2*rng.Float64()-1)*1e308)
		}
	}
	if s, err := SingularValues(huge, o); !errors.Is(err, ErrNumerical) {
		t.Fatalf("SingularValues returned %v, %v; want ErrNumerical", s, err)
	}
	b := randomDense(1, 8, 8)
	got, err := SingularValues(b, o)
	if err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(got, freshJob(t, JobSingularValues, b, o)) {
		t.Fatal("the call after the failed one differs from one on fresh graphs")
	}
}
