package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// outcome is what one operation reports back to the load generator.
// verify is the correctness oracle for the operation's output; the
// generator runs it after the measurement, so checking costs the
// measured system nothing.
type outcome struct {
	class    string  // traffic class of a served job: miss, hit or svd
	serverMs float64 // the daemon's own "ms" figure, 0 for library calls
	err      error   // transport or API error
	rejected bool    // the daemon refused the request (429 or 5xx)
	verify   func() error
}

// sample is one measured operation. due is when it was scheduled to
// start, start when it did; latency runs from due.
type sample struct {
	op              int
	due, start, end time.Time
	outcome
}

func (s sample) latencyMs() float64 { return ms(s.end.Sub(s.due)) }
func (s sample) lateMs() float64    { return ms(s.start.Sub(s.due)) }

type opFunc func(ctx context.Context, i int) outcome

// closedLoop is one caller issuing op after op for d: the next starts
// when the previous returns, so due and start coincide.
func closedLoop(ctx context.Context, d time.Duration, op opFunc) []sample {
	var out []sample
	begin := time.Now()
	for i := 0; ctx.Err() == nil && (i == 0 || time.Since(begin) < d); i++ {
		s := sample{op: i, due: time.Now()}
		s.start = s.due
		s.outcome = op(ctx, i)
		s.end = time.Now()
		out = append(out, s)
	}
	return out
}

// poissonSchedule returns the arrival offsets of a seeded Poisson
// process at rate per second over [0, d), with its exponential gaps
// drawn by stratified sampling: round(rate·d) gaps, one from each
// equal-probability slice of the exponential distribution, in
// seed-shuffled order. Every run then offers the same number of requests
// and very nearly the same set of gaps — the short ones that make
// requests overlap included — and only their order changes with the
// seed, which takes the luck of the draw out of the offered load without
// smoothing the bursts away.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	n := int(math.Round(rate * d.Seconds()))
	gaps := make([]float64, n)
	total := 1 / rate // the window closes one mean gap after the last arrival
	for i := range gaps {
		u := (float64(i) + rng.Float64()) / float64(n)
		gaps[i] = -math.Log1p(-u) / rate
		total += gaps[i]
	}
	rng.Shuffle(n, func(a, b int) { gaps[a], gaps[b] = gaps[b], gaps[a] })
	due := make([]time.Duration, n)
	t := 0.0
	for i, g := range gaps {
		t += g
		due[i] = time.Duration(t / total * float64(d)) // total ≈ d; make it exact
	}
	return due
}

// openLoop fires op i at begin+due[i] whatever the earlier operations
// are doing, with at most inflight running: a request that finds every
// slot busy waits for one, and because its latency is timed from its due
// time, a stall lengthens the latencies of the requests queued behind it.
func openLoop(ctx context.Context, due []time.Duration, inflight int, op opFunc) []sample {
	out := make([]sample, len(due))
	slots := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	begin := time.Now()
	for i, off := range due {
		at := begin.Add(off)
		if wait := time.Until(at); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			out = out[:i]
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &out[i]
			s.op, s.due, s.start = i, at, time.Now()
			s.outcome = op(ctx, i)
			s.end = time.Now()
			<-slots
		}()
	}
	wg.Wait()
	return out
}

// summary holds the end-to-end figures of one measured window.
type summary struct {
	attempted, failed int
	failures          []string // "op 17: <reason>"
	p50, tail         float64  // ms
	tailPct           int
	opsPerS           float64
	latePct95         float64 // ms
}

// summarize verifies every sample (outside the timed window) and derives
// the end-to-end figures. A failed operation counts against fail ratio
// and throughput; its latency still enters the percentiles, since a
// caller waited that long. wantTail is the workload's nominal tail
// percentile; a shorter run than nominal lowers it by the ten-sample rule.
func summarize(samples []sample, wantTail int) summary {
	sum := summary{attempted: len(samples)}
	if len(samples) == 0 {
		return sum
	}
	lat := make([]float64, len(samples))
	late := make([]float64, len(samples))
	first, last := samples[0].due, samples[0].end
	for i, s := range samples {
		lat[i], late[i] = s.latencyMs(), s.lateMs()
		if s.due.Before(first) {
			first = s.due
		}
		if s.end.After(last) {
			last = s.end
		}
		err := s.err
		if err == nil && s.verify != nil {
			err = s.verify()
		}
		if err != nil {
			sum.failed++
			sum.failures = append(sum.failures, fmt.Sprintf("op %d: %v", s.op, err))
		}
	}
	sum.tailPct = min(wantTail, tailPercentile(len(samples)))
	sum.p50 = median(lat)
	sum.tail = percentile(lat, float64(sum.tailPct))
	sum.latePct95 = percentile(late, 95)
	if wall := last.Sub(first).Seconds(); wall > 0 {
		sum.opsPerS = float64(sum.attempted-sum.failed) / wall
	}
	return sum
}
