package bidiag

import (
	"context"
	"errors"
	"fmt"
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

// TestReuseNeverShows computes B on fresh chunks, then A, then B again on
// the chunks A left behind, for every entry point and algorithm shape.
func TestReuseNeverShows(t *testing.T) {
	const nb = 16
	for _, c := range []struct {
		name string
		m, n int
		tree Tree
		call reuseCall
	}{
		{"values/tall", 320, 48, FlatTS, valuesCall}, // R-BIDIAG by Chan's rule
		{"values/square", 96, 96, Auto, valuesCall},
		{"values/wide", 48, 112, Auto, valuesCall},
		{"values/ragged", 5*nb + 1, 60, Greedy, valuesCall}, // m = NB·p + 1
		{"svd/square", 64, 64, Auto, svdCall},
		{"svd/wide", 40, 72, FlatTT, svdCall},
		{"ge2bnd/tall", 320, 48, FlatTT, bandCall},
		{"ge2bnd/square", 80, 80, Auto, bandCall},
	} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				o := &Options{NB: nb, Tree: c.tree, Workers: workers}
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

// TestReuseAfterFailedJob fails a service job in the middle of its graph —
// its ctx cancelled, or its kernel panicking, right after a task wrote
// its tiles — and checks that the jobs after it, on the service and one
// shot, compute bitwise what they computed before it.
func TestReuseAfterFailedJob(t *testing.T) {
	b := randomDense(1, 320, 48)
	opts := &Options{NB: 16, Tree: FlatTS, Workers: 2}
	want, err := SingularValues(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, fail := range []string{"cancel", "panic"} {
		t.Run(fail, func(t *testing.T) {
			svc := NewService(&ServiceConfig{Workers: 2, CacheBytes: -1})
			defer svc.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req := request{build: func() (job, error) {
				o, src, tree, transposed, err := resolve(randomDense(2, 320, 48), opts)
				if err != nil {
					return job{}, err
				}
				j := newJob(JobSingularValues, src, o, tree, transposed, nil)
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
			_, err := doRequest(svc, ctx, req)
			if err == nil || (fail == "cancel") != errors.Is(err, context.Canceled) {
				t.Fatalf("the failing job returned %v", err)
			}
			for i := 0; i < 2; i++ {
				res, err := svc.Do(context.Background(), JobRequest{A: b, Opts: opts})
				if err != nil {
					t.Fatal(err)
				}
				if !bitwiseEqual(res.Values, want) {
					t.Fatalf("service job %d after the failed one differs", i)
				}
				got, err := SingularValues(b, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bitwiseEqual(got, want) {
					t.Fatalf("one-shot call %d after the failed job differs", i)
				}
			}
		})
	}
}

// TestTemplateReuse runs jobs B, A, B through the templates of their key,
// GE2BND graph and chase graph, one shot and as service jobs with the
// cache off: both B results must equal, bit for bit, B on graphs built
// for it alone, for every algorithm shape and tree.
func TestTemplateReuse(t *testing.T) {
	const nb = 16
	svc := NewService(&ServiceConfig{Workers: 2, MaxInFlight: 1, CacheBytes: -1})
	defer svc.Close()
	served := func(a *Dense, o *Options) ([]float64, error) {
		res, err := svc.Do(context.Background(), JobRequest{A: a, Opts: o})
		if err != nil {
			return nil, err
		}
		return res.Values, nil
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
		for _, tree := range []Tree{FlatTS, FlatTT, Greedy, Auto} {
			for _, entry := range []struct {
				name string
				call reuseCall
			}{{"one-shot", valuesCall}, {"service", served}} {
				t.Run(fmt.Sprintf("%s/%v/%s", c.name, tree, entry.name), func(t *testing.T) {
					o := &Options{NB: nb, Tree: tree, Workers: 2}
					b, a := randomDense(1, c.m, c.n), randomDense(2, c.m, c.n)
					want := freshValues(t, b, o)
					for i, in := range []*Dense{b, a, b} {
						got, err := entry.call(in, o)
						if err != nil {
							t.Fatal(err)
						}
						if in == b && !bitwiseEqual(got, want) {
							t.Fatalf("job %d, B on a template, differs from B on fresh graphs", i)
						}
					}
				})
			}
		}
	}
}

// freshValues computes a's singular values sequentially on graphs built
// for the call alone, as a key's first job builds them.
func freshValues(t *testing.T, a *Dense, o *Options) []float64 {
	t.Helper()
	opts, src, tree, _, err := prepare(a, o)
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.Build(pipeline.Spec{
		Shape:   core.ShapeOf(src.Rows, src.Cols, opts.NB),
		Data:    tile.FromDense(src, opts.NB),
		Config:  core.Config{Tree: tree, Gamma: opts.Gamma, Cores: opts.Workers, Blocking: nla.Blocking(opts.Gemm)},
		RBidiag: useRBidiag(opts, src.Rows, src.Cols),
	})
	if _, err := pipeline.Run(p, pipeline.Sequential{}); err != nil {
		t.Fatal(err)
	}
	s, err := (&Band{b: p.Tiles.ExtractBand(opts.NB), window: opts.BND2BDWindow}).SingularValues()
	if err != nil {
		t.Fatal(err)
	}
	return s
}
