package bidiag

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/plan"
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

// TestServiceCustomGemmMatchesOneShot checks that a job with a custom
// Options.Gemm blocking — which its graph carries to the pool's
// workspaces — computes exactly what the one-shot call does.
func TestServiceCustomGemmMatchesOneShot(t *testing.T) {
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
			t.Fatalf("custom-Gemm value %d differs bitwise from the one-shot run", k)
		}
	}
}

// planState decodes the service's autotuner document.
func planState(t *testing.T, svc *Service) plan.State {
	t.Helper()
	raw, err := svc.PlanState()
	if err != nil {
		t.Fatal(err)
	}
	var st plan.State
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServiceAutoKeepsGemmPin checks that an Auto job pinning
// Options.Gemm runs under that blocking even when an unpinned job of the
// same shape bucket created the profile it is planned from: the blocking
// is not a plan dimension, so the tuner's plan must not overwrite it.
// Both jobs pin the FlatTS tree: its TS updates run through the packed
// GEMM at every candidate tile size, where this blocking shows in the
// bits.
func TestServiceAutoKeepsGemmPin(t *testing.T) {
	svc := NewService(&ServiceConfig{Workers: 2, CacheBytes: -1})
	defer svc.Close()
	ctx := context.Background()
	if _, err := svc.Do(ctx, JobRequest{A: randomDense(40, 96, 80), Opts: &Options{Auto: true, Workers: 2, Tree: FlatTS}}); err != nil {
		t.Fatal(err)
	}
	pin := GemmBlock{MC: 16, KC: 24, NC: 16}
	a := randomDense(41, 96, 80)
	res, err := svc.Do(ctx, JobRequest{A: a, Opts: &Options{Auto: true, Workers: 2, Tree: FlatTS, Gemm: pin}})
	if err != nil {
		t.Fatal(err)
	}
	base, err := (&Options{Workers: 2, Tree: FlatTS}).Validate()
	if err != nil {
		t.Fatal(err)
	}
	var tried []string
	for _, p := range planState(t, svc).Profiles {
		for _, c := range p.Candidates {
			ref := applyPlanConfig(base, c.Config)
			ref.Gemm = pin
			want, err := SingularValues(a, &ref)
			if err != nil {
				t.Fatal(err)
			}
			if bitwiseEqual(want, res.Values) {
				return
			}
			tried = append(tried, c.Desc)
		}
	}
	t.Fatalf("the pinned Auto job matches no candidate under its blocking %+v (tried %q)", pin, tried)
}

// TestServiceAutoOffPlanKnobsDoNotRecord checks the rule that keeps a
// profile's rates comparable: an Auto job that sets a knob the planner
// does not choose (Gamma, BND2BDWindow, Gemm) is planned from its bucket's
// profile but adds no sample to any profile, while a default Auto job
// adds one.
func TestServiceAutoOffPlanKnobsDoNotRecord(t *testing.T) {
	svc := NewService(&ServiceConfig{Workers: 2, CacheBytes: -1})
	defer svc.Close()
	samples := func() int {
		total := 0
		for _, p := range planState(t, svc).Profiles {
			for _, c := range p.Candidates {
				total += c.Samples
			}
		}
		return total
	}
	run := func(seed int64, o Options) {
		t.Helper()
		o.Auto, o.Workers = true, 2
		if _, err := svc.Do(context.Background(), JobRequest{A: randomDense(seed, 96, 80), Opts: &o}); err != nil {
			t.Fatal(err)
		}
	}
	run(50, Options{})
	if got := samples(); got != 1 {
		t.Fatalf("a default Auto job recorded %d samples, want 1", got)
	}
	for i, o := range []Options{{Gamma: 3}, {BND2BDWindow: 16}, {Gemm: GemmBlock{MC: 16, KC: 24, NC: 16}}} {
		run(int64(51+i), o)
		if got := samples(); got != 1 {
			t.Fatalf("an Auto job with %+v changed the sample count to %d", o, got)
		}
	}
	run(54, Options{})
	if got := samples(); got != 2 {
		t.Fatalf("a second default Auto job left %d samples, want 2", got)
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

// TestOneShotLeavesNoGoroutines runs SingularValuesCtx and SVDCtx on two
// workers to success, on a ctx cancelled before the call and on one
// cancelled mid-run: every return path closes the call's runtime, so the
// goroutine count comes back to where it started.
func TestOneShotLeavesNoGoroutines(t *testing.T) {
	calls := map[string]func(context.Context, *Dense, *Options) error{
		"SingularValuesCtx": func(ctx context.Context, a *Dense, o *Options) error {
			_, err := SingularValuesCtx(ctx, a, o)
			return err
		},
		"SVDCtx": func(ctx context.Context, a *Dense, o *Options) error {
			_, err := SVDCtx(ctx, a, o)
			return err
		},
	}
	for name, call := range calls {
		for _, c := range []struct {
			way    string
			a      *Dense
			cancel time.Duration // < 0: before the call, 0: never
		}{
			{"success", randomDense(6, 96, 64), 0},
			{"pre-cancelled", randomDense(6, 96, 64), -1},
			{"mid-run", randomDense(7, 1024, 512), 25 * time.Millisecond},
		} {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			if c.cancel < 0 {
				cancel()
			} else if c.cancel > 0 {
				time.AfterFunc(c.cancel, cancel)
			}
			err := call(ctx, c.a, &Options{NB: 32, Workers: 2})
			cancel()
			if (c.cancel == 0) != (err == nil) || (err != nil && !errors.Is(err, context.Canceled)) {
				t.Fatalf("%s, %s: error %v", name, c.way, err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%s, %s: %d goroutines before the call, %d after", name, c.way, before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
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

// TestServiceTracedSVD pins the tracer hand-off to an SVD job's back
// half: the timeline of a traced 128² job holds the panels that form Q₂
// and P₂ (BRDQP) and the rotation batches (BDROT) besides its GE2BND
// graph, with nothing dropped, and the traced decomposition is bitwise
// the one-shot call's.
func TestServiceTracedSVD(t *testing.T) {
	svc := NewService(&ServiceConfig{Workers: 2, CacheBytes: -1})
	defer svc.Close()
	a := randomDense(11, 128, 128)
	opts := &Options{NB: 16, Workers: 2}
	res, err := svc.Do(context.Background(), JobRequest{Kind: JobSVD, A: a, Opts: opts, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, s := range res.Timeline {
		spans[s.Kernel]++
	}
	if spans["BRDQP"] == 0 || spans["BDROT"] == 0 || spans["TSMLQ"]+spans["TTMLQ"]+spans["UNMLQ"] == 0 {
		t.Fatalf("timeline spans by kernel %v: want BRDQP, BDROT and the right back-transform", spans)
	}
	if st := svc.Stats(); st.TraceDropped != 0 {
		t.Fatalf("service dropped %d trace events", st.TraceDropped)
	}
	ref, err := SVD(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ref.S {
		if ref.S[k] != res.SVD.S[k] {
			t.Fatalf("traced singular value %d differs bitwise from the one-shot call", k)
		}
	}
	for i := range ref.U.inner.Data {
		if ref.U.inner.Data[i] != res.SVD.U.inner.Data[i] || ref.V.inner.Data[i] != res.SVD.V.inner.Data[i] {
			t.Fatalf("traced vectors differ bitwise from the one-shot call at %d", i)
		}
	}
}
