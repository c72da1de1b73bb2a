package bidiag

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestServiceConcurrentMixedShapes is the serving acceptance test: 32+
// concurrent jobs of mixed shapes, values-only and vector-bearing, on ONE
// shared Service, each result bitwise-identical to its one-shot
// run. CI runs this package under -race.
func TestServiceConcurrentMixedShapes(t *testing.T) {
	shapes := []struct{ m, n int }{
		{40, 30}, {64, 64}, {100, 60}, {30, 50}, {96, 96}, {120, 48}, {48, 120}, {80, 80},
	}
	opts := &Options{NB: 16, Workers: 2}

	const jobs = 36
	mats := make([]*Dense, jobs)
	kinds := make([]JobKind, jobs)
	refVals := make([][]float64, jobs)
	refSVD := make([]*SVDResult, jobs)
	for i := 0; i < jobs; i++ {
		sh := shapes[i%len(shapes)]
		mats[i] = randomDense(int64(1000+i), sh.m, sh.n)
		if i%6 == 5 {
			kinds[i] = JobSVD
			ref, err := SVD(mats[i], opts)
			if err != nil {
				t.Fatal(err)
			}
			refSVD[i] = ref
		} else {
			kinds[i] = JobSingularValues
			ref, err := SingularValues(mats[i], opts)
			if err != nil {
				t.Fatal(err)
			}
			refVals[i] = ref
		}
	}

	svc := NewService(&ServiceConfig{Workers: 4, CacheBytes: -1, QueueDepth: jobs})
	defer svc.Close()

	var wg sync.WaitGroup
	results := make([]*JobResult, jobs)
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = svc.Do(context.Background(), JobRequest{Kind: kinds[i], A: mats[i], Opts: opts})
		}()
	}
	wg.Wait()

	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if kinds[i] == JobSVD {
			got := results[i].SVD
			if got == nil {
				t.Fatalf("job %d: SVD job without SVD result", i)
			}
			ref := refSVD[i]
			for k := range ref.S {
				if ref.S[k] != got.S[k] {
					t.Fatalf("job %d: singular value %d differs bitwise from solo run", i, k)
				}
			}
			for j := 0; j < ref.U.Cols(); j++ {
				for r := 0; r < ref.U.Rows(); r++ {
					if ref.U.At(r, j) != got.U.At(r, j) {
						t.Fatalf("job %d: U(%d,%d) differs bitwise from solo run", i, r, j)
					}
				}
			}
			for j := 0; j < ref.V.Cols(); j++ {
				for r := 0; r < ref.V.Rows(); r++ {
					if ref.V.At(r, j) != got.V.At(r, j) {
						t.Fatalf("job %d: V(%d,%d) differs bitwise from solo run", i, r, j)
					}
				}
			}
		} else {
			if len(results[i].Values) != len(refVals[i]) {
				t.Fatalf("job %d: %d values, want %d", i, len(results[i].Values), len(refVals[i]))
			}
			for k := range refVals[i] {
				if refVals[i][k] != results[i].Values[k] {
					t.Fatalf("job %d: singular value %d differs bitwise from solo run: %v != %v",
						i, k, results[i].Values[k], refVals[i][k])
				}
			}
		}
	}
	st := svc.Stats()
	if st.JobsDone != jobs {
		t.Fatalf("JobsDone = %d, want %d", st.JobsDone, jobs)
	}
}

// TestServiceCacheRoundTrip submits the same matrix twice and a
// different matrix once: the repeat must hit, the others miss.
func TestServiceCacheRoundTrip(t *testing.T) {
	svc := NewService(&ServiceConfig{Workers: 2})
	defer svc.Close()
	a := randomDense(3, 48, 32)
	b := randomDense(4, 48, 32)
	opts := &Options{NB: 16, Workers: 1}

	r1, err := svc.Do(context.Background(), JobRequest{A: a, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := svc.Do(context.Background(), JobRequest{A: a, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := svc.Do(context.Background(), JobRequest{A: b, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit || !r2.CacheHit || r3.CacheHit {
		t.Fatalf("cache hits: %v %v %v, want false true false", r1.CacheHit, r2.CacheHit, r3.CacheHit)
	}
	for k := range r1.Values {
		if r1.Values[k] != r2.Values[k] {
			t.Fatalf("cached value %d differs", k)
		}
	}
	// Different options → different identity, even for the same matrix.
	r4, err := svc.Do(context.Background(), JobRequest{A: a, Opts: &Options{NB: 32, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r4.CacheHit {
		t.Fatal("different NB must not share a cache entry")
	}
}

// TestServiceCancelMidGraph cancels a large job mid-flight: it must
// return ctx.Err() promptly and leak no goroutines after Close.
func TestServiceCancelMidGraph(t *testing.T) {
	before := runtime.NumGoroutine()

	svc := NewService(&ServiceConfig{Workers: 1, CacheBytes: -1})
	a := randomDense(9, 1024, 512)
	ctx, cancel := context.WithCancel(context.Background())
	j, err := svc.Submit(ctx, JobRequest{A: a, Opts: &Options{NB: 64, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(25 * time.Millisecond) // let the graph get going
	cancel()
	start := time.Now()
	if _, err := j.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("cancelled job took %v to return", waited)
	}
	if st := svc.Stats(); st.JobsCancelled != 1 {
		t.Fatalf("stats: %+v, want 1 cancelled", st)
	}
	svc.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceCustomGemmRunsSolo checks that a job with a custom
// Options.Gemm blocking — which its graph carries to the pool's
// workspaces — computes exactly what the one-shot call does.
func TestServiceCustomGemmRunsSolo(t *testing.T) {
	svc := NewService(&ServiceConfig{Workers: 2, CacheBytes: -1})
	defer svc.Close()
	a := randomDense(21, 48, 32)
	opts := &Options{NB: 16, Workers: 1, Gemm: GemmBlock{MC: 64, KC: 64, NC: 64}}
	ref, err := SingularValues(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Do(context.Background(), JobRequest{A: a, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	for k := range ref {
		if ref[k] != res.Values[k] {
			t.Fatalf("custom-Gemm value %d differs bitwise from solo run", k)
		}
	}
}

func TestServiceRejectsDistributed(t *testing.T) {
	svc := NewService(nil)
	defer svc.Close()
	a := NewDense(8, 8)
	_, err := svc.Submit(context.Background(), JobRequest{A: a, Opts: &Options{Distributed: &DistOptions{Nodes: 2}}})
	if err == nil {
		t.Fatal("Distributed service job must be rejected")
	}
}

func TestSingularValuesCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := randomDense(4, 64, 48)
	if _, err := SingularValuesCtx(ctx, a, &Options{NB: 16, Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SingularValuesCtx = %v, want context.Canceled", err)
	}
	if _, err := SVDCtx(ctx, a, &Options{NB: 16, Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SVDCtx = %v, want context.Canceled", err)
	}
}

// TestSingularValuesCtxMidCancel cancels a sizeable reduction mid-graph
// and expects ctx.Err() back — the satellite requirement that cancelled
// jobs stop scheduling and return promptly.
func TestSingularValuesCtxMidCancel(t *testing.T) {
	a := randomDense(5, 1024, 512)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := SingularValuesCtx(ctx, a, &Options{NB: 64, Workers: 2})
		errc <- err
	}()
	time.Sleep(25 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-graph cancel = %v, want context.Canceled", err)
	}
}

// TestServiceTracedJob pins the public trace surface: a traced repeat of
// a cached job must re-execute (no cache hit in either direction) and
// return a complete, ordered timeline whose kernels are real tile
// kernels on valid workers.
func TestServiceTracedJob(t *testing.T) {
	svc := NewService(&ServiceConfig{Workers: 2})
	defer svc.Close()
	a := randomDense(9, 64, 48)
	opts := &Options{NB: 16, Workers: 2}

	plain, err := svc.Do(context.Background(), JobRequest{A: a, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Timeline != nil {
		t.Fatal("untraced job must not carry a timeline")
	}

	traced, err := svc.Do(context.Background(), JobRequest{A: a, Opts: opts, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if traced.CacheHit {
		t.Fatal("traced job must bypass the cache")
	}
	if len(traced.Timeline) == 0 {
		t.Fatal("traced job returned no timeline")
	}
	for i, s := range traced.Timeline {
		if s.Kernel == "" || s.End < s.Start || s.Worker < 0 || s.Worker >= 2 {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if i > 0 && s.Start < traced.Timeline[i-1].Start {
			t.Fatalf("timeline not sorted at span %d", i)
		}
	}
	for k := range plain.Values {
		if plain.Values[k] != traced.Values[k] {
			t.Fatalf("traced value %d differs from untraced", k)
		}
	}

	// The traced run must not have published over the cached entry: a
	// third plain submission still hits.
	again, err := svc.Do(context.Background(), JobRequest{A: a, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("traced run displaced the cached result")
	}

	st := svc.Stats()
	if st.Latency.Count < 3 || st.QueueWait.Count < 3 {
		t.Fatalf("histogram counts %d/%d, want >= 3", st.Latency.Count, st.QueueWait.Count)
	}
	if p50 := st.Latency.Quantile(0.5); p50 <= 0 {
		t.Fatalf("latency p50 %v, want > 0", p50)
	}
}

// TestServiceTracedChase pins the tracer hand-off between a values job's
// two graphs. The chase of a 64×48 job at nb 16 cut one block wide has
// more tasks than its GE2BND graph, so rings sized for the GE2BND graph
// alone would drop events: the timeline must hold both stages, every
// BND2BD span after the last GE2BND one, with nothing dropped.
func TestServiceTracedChase(t *testing.T) {
	svc := NewService(&ServiceConfig{Workers: 2, CacheBytes: -1})
	defer svc.Close()
	a := randomDense(9, 64, 48)
	opts := &Options{NB: 16, Workers: 2, BND2BDWindow: 16}
	res, err := svc.Do(context.Background(), JobRequest{A: a, Opts: opts, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var stage1, chase int
	var stage1End time.Duration
	for _, s := range res.Timeline {
		if s.Kernel == "BRDSEG" {
			chase++
			continue
		}
		stage1++
		stage1End = max(stage1End, s.End)
	}
	if stage1 == 0 || chase <= stage1 {
		t.Fatalf("timeline has %d GE2BND and %d BRDSEG spans; the chase must outnumber stage 1", stage1, chase)
	}
	for _, s := range res.Timeline {
		if s.Kernel == "BRDSEG" && s.Start < stage1End {
			t.Fatalf("chase span %+v starts before stage 1 ended at %v", s, stage1End)
		}
	}
	for rank, d := range res.Trace.Dropped {
		if d != 0 {
			t.Fatalf("rank %d dropped %d trace events", rank, d)
		}
	}
	if st := svc.Stats(); st.TraceDropped != 0 {
		t.Fatalf("service dropped %d trace events", st.TraceDropped)
	}
	ref, err := SingularValues(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ref {
		if ref[k] != res.Values[k] {
			t.Fatalf("traced value %d differs bitwise from the one-shot call", k)
		}
	}
}
