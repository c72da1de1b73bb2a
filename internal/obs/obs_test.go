package obs

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/kernels"
)

func TestRingRecordAndDrop(t *testing.T) {
	tr := NewTracer(1, 4)
	r := tr.Ring(0)
	for i := 0; i < 6; i++ {
		r.Record(Event{ID: int32(i), Start: time.Duration(i), End: time.Duration(i + 1)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	for i, e := range evs {
		if e.ID != int32(i) {
			t.Fatalf("event %d has ID %d (overwrote history?)", i, e.ID)
		}
		if e.Worker != 0 {
			t.Fatalf("event %d worker = %d, want 0", i, e.Worker)
		}
	}
}

func TestTracerGrowsRings(t *testing.T) {
	tr := NewTracer(2, 8)
	tr.Ring(0).Record(Event{ID: 1, Start: 2, End: 3})
	tr.Ring(5).Record(Event{ID: 2, Start: 1, End: 2})
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Sorted by start time.
	if evs[0].ID != 2 || evs[0].Worker != 5 {
		t.Fatalf("first event = %+v, want ID 2 on worker 5", evs[0])
	}
	if evs[1].Worker != 0 {
		t.Fatalf("second event worker = %d, want 0", evs[1].Worker)
	}
}

func TestEventsConcurrentWithRecord(t *testing.T) {
	const workers, per = 4, 2000
	tr := NewTracer(workers, per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := tr.Ring(w)
			for i := 0; i < per; i++ {
				r.Record(Event{ID: int32(i), Start: time.Duration(i), End: time.Duration(i + 1)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			evs := tr.Events()
			for _, e := range evs {
				if e.End != e.Start+1 {
					t.Errorf("torn event: %+v", e)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := len(tr.Events()); got != workers*per {
		t.Fatalf("final event count = %d, want %d", got, workers*per)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", tr.Dropped())
	}
}

func TestRecordNoAlloc(t *testing.T) {
	tr := NewTracer(1, 1<<16)
	r := tr.Ring(0)
	ev := Event{Kind: kernels.GEQRTKind, Flops: 1e6, Start: time.Millisecond, End: 2 * time.Millisecond}
	allocs := testing.AllocsPerRun(1000, func() { r.Record(ev) })
	if allocs != 0 {
		t.Fatalf("Record allocates %v allocs/op, want 0", allocs)
	}
}

func TestSummarize(t *testing.T) {
	evs := []Event{
		{Kind: kernels.GEQRTKind, Worker: 0, Flops: 2e9, Start: 0, End: time.Second},
		{Kind: kernels.GEQRTKind, Worker: 1, Flops: 2e9, Start: 0, End: time.Second},
		{Kind: kernels.TSMQRKind, Worker: 0, Flops: 4e9, Start: time.Second, End: 2 * time.Second},
	}
	s := Summarize(evs)
	if s.Events != 3 || s.Workers != 2 {
		t.Fatalf("events/workers = %d/%d, want 3/2", s.Events, s.Workers)
	}
	if s.Span != 2*time.Second {
		t.Fatalf("span = %v, want 2s", s.Span)
	}
	if s.Busy != 3*time.Second {
		t.Fatalf("busy = %v, want 3s", s.Busy)
	}
	if got, want := s.Utilization, 0.75; math.Abs(got-want) > 1e-12 {
		t.Fatalf("utilization = %v, want %v", got, want)
	}
	if s.Flops != 8e9 {
		t.Fatalf("flops = %v, want 8e9", s.Flops)
	}
	if len(s.PerKind) != 2 {
		t.Fatalf("PerKind = %d entries, want 2", len(s.PerKind))
	}
	// GEQRT: 4 GFLOP over 2s busy → 2 GFLOP/s.
	var geqrt KindSummary
	for _, k := range s.PerKind {
		if k.Kind == kernels.GEQRTKind {
			geqrt = k
		}
	}
	if geqrt.Count != 2 || math.Abs(geqrt.GFlops()-2) > 1e-12 {
		t.Fatalf("GEQRT summary = %+v (%.3f GF/s), want count 2 at 2 GF/s", geqrt, geqrt.GFlops())
	}
	if len(s.PerWorker) != 2 || s.PerWorker[0].Tasks != 2 || s.PerWorker[1].Tasks != 1 {
		t.Fatalf("PerWorker = %+v", s.PerWorker)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Events != 0 || s.Span != 0 || s.Utilization != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 0.5, 1.5, 3, 10} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-15.5) > 1e-12 {
		t.Fatalf("sum = %v, want 15.5", s.Sum)
	}
	want := []uint64{2, 1, 1, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, c, want[i], s.Counts)
		}
	}
	if q := s.Quantile(0.5); q <= 0 || q > 2 {
		t.Fatalf("p50 = %v, want within (0, 2]", q)
	}
	// p99 lands in the overflow bucket → clamped to the top bound.
	if q := s.Quantile(0.99); q != 4 {
		t.Fatalf("p99 = %v, want 4", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	if math.Abs(s.Sum-float64(goroutines*per)*0.01) > 1e-6 {
		t.Fatalf("sum = %v, want %v", s.Sum, float64(goroutines*per)*0.01)
	}
}

func TestRegistryWriteText(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	r := NewRegistry()
	r.Gauge("bidiagd_workers", "Worker goroutines.", func() float64 { return 8 })
	r.Counter("bidiagd_jobs_total", "Jobs completed.", func() float64 { return 42 })
	r.LabeledGauge("bidiagd_link_queue_depth", "Queued frames.", func() []LabeledValue {
		return []LabeledValue{{Label: `to="1"`, Value: 3}, {Label: `to="2"`, Value: 1}}
	})
	r.Histogram("bidiagd_job_latency_seconds", "Job latency.", h.Snapshot)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP bidiagd_workers Worker goroutines.\n# TYPE bidiagd_workers gauge\nbidiagd_workers 8\n",
		"# TYPE bidiagd_jobs_total counter\nbidiagd_jobs_total 42\n",
		`bidiagd_link_queue_depth{to="1"} 3`,
		`bidiagd_link_queue_depth{to="2"} 1`,
		"# TYPE bidiagd_job_latency_seconds histogram\n",
		`bidiagd_job_latency_seconds_bucket{le="0.1"} 1`,
		`bidiagd_job_latency_seconds_bucket{le="1"} 2`,
		`bidiagd_job_latency_seconds_bucket{le="+Inf"} 3`,
		"bidiagd_job_latency_seconds_sum 5.55\n",
		"bidiagd_job_latency_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPromFloat(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		8:      "8",
		-3:     "-3",
		0.25:   "0.25",
		1e20:   "1e+20",
		0.0005: "0.0005",
	}
	for v, want := range cases {
		if got := promFloat(v); got != want {
			t.Fatalf("promFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestSummarizeSkipsCommEvents(t *testing.T) {
	events := []Event{
		{Kind: kernels.GEQRTKind, ID: 0, Flops: 100, Start: 0, End: 10},
		{Op: OpSend, ID: 0, Node: 0, Peer: 1, WireBytes: 532, PayloadBytes: 512, Start: 10, End: 12},
		{Op: OpRecv, ID: 0, Node: 1, Peer: 0, WireBytes: 532, PayloadBytes: 512, Start: 11, End: 13},
	}
	s := Summarize(events)
	if s.Events != 1 {
		t.Fatalf("Summarize counted %d events, want 1 (comm events skipped)", s.Events)
	}
	if s.Flops != 100 {
		t.Fatalf("Summarize flops = %v, want 100", s.Flops)
	}
	if got := len(CommEvents(events)); got != 2 {
		t.Fatalf("CommEvents kept %d events, want 2", got)
	}
	if got := len(TaskEvents(events)); got != 1 {
		t.Fatalf("TaskEvents kept %d events, want 1", got)
	}
}

func TestCommEventRecordNoAlloc(t *testing.T) {
	tr := NewTracer(1, 1<<12)
	r := tr.Ring(0)
	ev := Event{Op: OpSend, ID: 7, Node: 0, Peer: 1, WireBytes: 1024, PayloadBytes: 1000,
		Wait: 3 * time.Microsecond, Start: time.Microsecond, End: 2 * time.Microsecond}
	allocs := testing.AllocsPerRun(100, func() { r.Record(ev) })
	if allocs != 0 {
		t.Fatalf("comm-event Record allocates %v/op, want 0", allocs)
	}
}

func TestLabeledHistogramRender(t *testing.T) {
	h01 := NewHistogram(WireBuckets())
	h10 := NewHistogram(WireBuckets())
	h01.Observe(2e-6)
	h01.Observe(3e-4)
	h10.Observe(5e-3)
	r := NewRegistry()
	r.LabeledHistogram("test_link_seconds", "per-link latency", func() []LabeledHist {
		return []LabeledHist{
			{Label: `from="0",to="1"`, Hist: h01.Snapshot()},
			{Label: `from="1",to="0"`, Hist: h10.Snapshot()},
		}
	})
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE test_link_seconds histogram",
		`test_link_seconds_bucket{from="0",to="1",le="+Inf"} 2`,
		`test_link_seconds_bucket{from="1",to="0",le="+Inf"} 1`,
		`test_link_seconds_count{from="0",to="1"} 2`,
		`test_link_seconds_count{from="1",to="0"} 1`,
		`test_link_seconds_sum{from="1",to="0"} 0.005`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("labeled histogram output missing %q:\n%s", want, out)
		}
	}
	// Cumulative le buckets stay monotone per label set.
	if !strings.Contains(out, `test_link_seconds_bucket{from="0",to="1",le="2.5e-06"} 1`) {
		t.Fatalf("expected 2µs observation in the 2.5e-06 bucket:\n%s", out)
	}
}

// TestRegistryScrapeConcurrentWithUpdates hammers live histogram and
// counter sources from many goroutines while scraping WriteText, so the
// -race leg proves collect-on-scrape needs no registry-side locking.
func TestRegistryScrapeConcurrentWithUpdates(t *testing.T) {
	h := NewHistogram(nil)
	var hits atomic.Int64
	r := NewRegistry()
	r.Counter("test_hits_total", "updates observed", func() float64 { return float64(hits.Load()) })
	r.Histogram("test_latency_seconds", "latency", h.Snapshot)
	r.LabeledHistogram("test_link_seconds", "per-link", func() []LabeledHist {
		return []LabeledHist{{Label: `from="0",to="1"`, Hist: h.Snapshot()}}
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64(i%100) * 1e-4)
				hits.Add(1)
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "test_latency_seconds_count") {
			t.Fatal("scrape lost the histogram series")
		}
	}
	close(stop)
	wg.Wait()
}
