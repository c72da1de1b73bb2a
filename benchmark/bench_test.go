package main

import (
	"context"
	"math/rand"
	"regexp"
	"strconv"
	"testing"
	"time"
)

// The tail metric is the highest percentile with at least ten samples
// beyond it; below forty samples only the median qualifies.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
	// A workload's nominal percentile is lowered, never raised, by the
	// samples a run actually holds.
	lat := make([]sample, 30)
	now := time.Now()
	for i := range lat {
		lat[i] = sample{op: i, due: now, start: now, end: now.Add(time.Duration(i+1) * time.Millisecond)}
	}
	if s := summarize(lat, 90); s.tailPct != 50 || s.tail != s.p50 {
		t.Errorf("30 samples at nominal p90: got p%d (%.2f vs p50 %.2f), want the median", s.tailPct, s.tail, s.p50)
	}
	if s := summarize(append(lat, lat...), 50); s.tailPct != 50 {
		t.Errorf("60 samples at nominal p50: got p%d, want p50", s.tailPct)
	}
}

// The arrival schedule is a function of the seed alone, offers the same
// number of requests whatever the seed, and stays inside the window.
func TestPoissonSchedule(t *testing.T) {
	const rate, d = 12.0, 15 * time.Second
	a := poissonSchedule(rand.New(rand.NewSource(1)), rate, d)
	b := poissonSchedule(rand.New(rand.NewSource(1)), rate, d)
	c := poissonSchedule(rand.New(rand.NewSource(2)), rate, d)
	if len(a) != 180 || len(c) != 180 {
		t.Fatalf("got %d and %d arrivals, want 180 for either seed", len(a), len(c))
	}
	same := true
	short := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between two runs of seed 1", i)
		}
		same = same && a[i] == c[i]
		if i > 0 {
			if a[i] < a[i-1] {
				t.Fatalf("arrival %d is before arrival %d", i, i-1)
			}
			if a[i]-a[i-1] < time.Second/(4*rate) {
				short++
			}
		}
	}
	if same {
		t.Error("seeds 1 and 2 give the same schedule")
	}
	if a[len(a)-1] >= d {
		t.Errorf("last arrival at %v is outside the %v window", a[len(a)-1], d)
	}
	// An exponential gap is below a quarter of the mean with probability
	// 1−e^(−1/4) = 22%: the bursts must survive the stratification.
	if short < 30 || short > 50 {
		t.Errorf("%d of 179 gaps are below a quarter of the mean, want about 40", short)
	}
}

// In an open loop a request is timed from when it was due: one stalled
// operation must lengthen the latencies of the requests queued behind
// it, not only its own, and show up as generator lateness.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const (
		n     = 12
		gap   = 5 * time.Millisecond
		stall = 80 * time.Millisecond
		quick = time.Millisecond
	)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	op := func(_ context.Context, i int) outcome {
		if i == 2 {
			time.Sleep(stall)
		} else {
			time.Sleep(quick)
		}
		return outcome{}
	}
	samples := openLoop(context.Background(), due, 1, op)
	if len(samples) != n {
		t.Fatalf("got %d samples, want %d", len(samples), n)
	}
	for i, s := range samples {
		if s.op != i {
			t.Fatalf("sample %d carries op %d", i, s.op)
		}
	}
	if l := samples[1].latencyMs(); l > 40 {
		t.Errorf("op 1 ran before the stall but took %.1f ms", l)
	}
	// Op 3 was due 5 ms after op 2 started its 80 ms stall, so it waited
	// about 75 ms for the slot although its own work takes 1 ms.
	for _, i := range []int{3, 4, 5} {
		if l := samples[i].latencyMs(); l < 40 {
			t.Errorf("op %d queued behind the stall shows %.1f ms, want the wait included", i, l)
		}
		if l := samples[i].lateMs(); l < 40 {
			t.Errorf("op %d started %.1f ms late, want the stall to show as lateness", i, l)
		}
	}
	if s := summarize(samples, 50); s.latePct95 < 40 {
		t.Errorf("loadgen.late_p95_ms = %.1f, want the stall visible", s.latePct95)
	}
}

// Self time is a span's duration minus what its children cover:
// overlapping children count once, children are clipped to the parent,
// and grandchildren are their parent's business.
func TestSelfTime(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: msd(0), End: msd(100)},
		{ID: 2, Parent: 1, Name: "a", Start: msd(10), End: msd(30)},
		{ID: 3, Parent: 1, Name: "b", Start: msd(20), End: msd(50)},
		{ID: 4, Parent: 1, Name: "c", Start: msd(90), End: msd(120)},
		{ID: 5, Parent: 3, Name: "b.inner", Start: msd(25), End: msd(45)},
	}
	want := []time.Duration{msd(50), msd(20), msd(10), msd(30), msd(20)}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %q = %v, want %v", spans[i].Name, got, want[i])
		}
	}

	tr := newTracer()
	root := tr.begin(0, 7, "op")
	timed(tr, root, 7, "stage", func() { time.Sleep(2 * time.Millisecond) })
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != 7 || tr.spans[1].End < tr.spans[1].Start {
		t.Fatalf("tracer recorded %+v", tr.spans)
	}
	if got := ms(tr.spans[1].End - tr.spans[1].Start); got < 2 {
		t.Errorf("stage span lasted %.2f ms, want at least the 2 ms it slept", got)
	}
}

// BENCHMARK.json and the harness must name the same workloads and
// metrics, within the limits the acceptance driver enforces.
func TestManifestMatchesHarness(t *testing.T) {
	mf, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(mf.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("manifest has %d workloads, harness %d (allowed: 2 to 8)", len(mf.Workloads), len(workloads))
	}
	for i, w := range mf.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d: manifest %q, harness %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	check := func(kind string, got []manifestMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(want) > limit {
			t.Fatalf("%s: manifest has %d metrics, harness %d (limit %d)", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			w := want[i]
			better := "lower"
			if w.higher {
				better = "higher"
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != better {
				t.Errorf("%s metric %d: manifest %+v, harness %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) {
				t.Errorf("%s metric %q (unit %q) breaks the naming rules", kind, g.Name, g.Unit)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s metric %q: bound %v outside (0, 0.25]", kind, g.Name, g.Bound)
			}
			if !bounded && g.Bound != 0 {
				t.Errorf("%s metric %q carries a bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", mf.EndToEnd, endToEnd, 16, true)
	check("per_layer", mf.PerLayer, perLayer, 128, false)

	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if seen[d.name] {
				t.Errorf("metric name %q is used twice", d.name)
			}
			seen[d.name] = true
		}
	}
	if !seen["setup_s"] || unitOf["setup_s"] != "s" {
		t.Error("the end-to-end metrics must include setup_s in seconds")
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1 to 60", mf.RunSeconds)
	}
}

// The queue-wait quantiles come from the daemon's Prometheus text: the
// cumulative buckets must turn back into per-bucket counts, and two
// scrapes into the observations made between them.
func TestParseHistogram(t *testing.T) {
	scrape := func(a, b, c int) string {
		return "# TYPE x_seconds histogram\n" +
			`x_seconds_bucket{le="0.001"} ` + strconv.Itoa(a) + "\n" +
			`x_seconds_bucket{le="0.01"} ` + strconv.Itoa(a+b) + "\n" +
			`x_seconds_bucket{le="+Inf"} ` + strconv.Itoa(a+b+c) + "\n" +
			"x_seconds_sum 1.5\nx_seconds_count " + strconv.Itoa(a+b+c) + "\n" +
			`other_seconds_bucket{le="1"} 99` + "\n"
	}
	before, err := parseHistogram(scrape(1, 1, 0), "x_seconds")
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseHistogram(scrape(5, 4, 1), "x_seconds")
	if err != nil {
		t.Fatal(err)
	}
	d := minus(after, before)
	if len(d.Bounds) != 2 || len(d.Counts) != 3 || d.Counts[0] != 4 || d.Counts[1] != 3 || d.Counts[2] != 1 || d.Count != 8 {
		t.Fatalf("window histogram = %+v", d)
	}
	if q := d.Quantile(0.5); q <= 0 || q > 0.001 {
		t.Errorf("p50 = %v, want within the first bucket", q)
	}
	if _, err := parseHistogram("nothing here\n", "x_seconds"); err == nil {
		t.Error("a scrape without the histogram must be an error")
	}
}
