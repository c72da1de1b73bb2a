// Example serve: many concurrent singular-value jobs of mixed shapes on
// one shared bidiag.Service — each job one task graph, all of them
// interleaving on the same pool — the result cache absorbing a repeated
// input, and a cancelled job failing fast without touching its
// neighbours.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/tiled-la/bidiag"
)

func randomDense(rng *rand.Rand, m, n int) *bidiag.Dense {
	a := bidiag.NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	return a
}

func main() {
	svc := bidiag.NewService(&bidiag.ServiceConfig{Workers: 4})
	defer svc.Close()

	rng := rand.New(rand.NewSource(1))
	shapes := []struct{ m, n int }{{64, 48}, {96, 96}, {200, 120}, {80, 64}, {120, 200}}
	opts := &bidiag.Options{NB: 32}

	// A mixed fleet of concurrent jobs: their tasks interleave on the same
	// shared pool, so small jobs fill the gaps of large ones.
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 12; i++ {
		sh := shapes[i%len(shapes)]
		a := randomDense(rng, sh.m, sh.n)
		wg.Add(1)
		go func(i int, a *bidiag.Dense) {
			defer wg.Done()
			res, err := svc.Do(context.Background(), bidiag.JobRequest{A: a, Opts: opts})
			if err != nil {
				fmt.Printf("job %2d: %v\n", i, err)
				return
			}
			fmt.Printf("job %2d: %dx%d  σ₁ = %.3f\n", i, a.Rows(), a.Cols(), res.Values[0])
		}(i, a)
	}
	wg.Wait()
	fmt.Printf("12 mixed jobs in %v\n\n", time.Since(start).Round(time.Millisecond))

	// The cache: resubmitting an identical matrix is answered instantly.
	b := randomDense(rng, 100, 80)
	if _, err := svc.Do(context.Background(), bidiag.JobRequest{A: b, Opts: opts}); err != nil {
		panic(err)
	}
	res, err := svc.Do(context.Background(), bidiag.JobRequest{A: b, Opts: opts})
	if err != nil {
		panic(err)
	}
	fmt.Printf("repeat submission: cache hit = %v\n", res.CacheHit)

	// Cancellation: a job abandoned mid-flight fails with context.Cause(ctx) and
	// releases its workers to the jobs that still matter.
	ctx, cancel := context.WithCancel(context.Background())
	job, err := svc.Submit(ctx, bidiag.JobRequest{A: randomDense(rng, 512, 384), Opts: opts})
	if err != nil {
		panic(err)
	}
	cancel()
	if _, err := job.Wait(); err != nil {
		fmt.Printf("cancelled job: %v\n", err)
	}

	st := svc.Stats()
	fmt.Printf("\nservice: %d done, %d cancelled, cache %d/%d hits, p50 %v p99 %v\n",
		st.JobsDone, st.JobsCancelled, st.CacheHits, st.CacheHits+st.CacheMisses, st.P50.Round(time.Millisecond), st.P99.Round(time.Millisecond))
}
