package pipeline

import (
	"math/rand"
	"testing"

	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/obs"
)

// TestWarmGE2BNDNoAlloc pins the tracing-disabled overhead promise on the
// real hot path: once the worker's arena has grown to the graph's
// requirement, dispatching actual GE2BND kernels through RunTask with a
// nil tracer performs zero allocations. BenchmarkWarmGE2BND tracks the
// time side of the same promise through the bench-trend CI leg.
func TestWarmGE2BNDNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := nla.RandomMatrix(rng, 96, 64)
	spec := specFor(src, 32, dist.Grid{R: 1, C: 1}, 1, false)
	p := Build(spec)
	g := p.Graph
	ws := g.NewWorkspace()
	run := func() {
		for _, task := range g.Tasks {
			if err := g.RunTask(task, ws, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm the arena and any lazy kernel state
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("warm GE2BND run allocates %v allocs/op with tracing disabled, want 0", allocs)
	}
}

// TestTracedPipelineRun is the integration check behind cmd/trace
// -measured: a traced parallel GE2BND execution yields exactly one event
// per task, kernel kinds intact.
func TestTracedPipelineRun(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := nla.RandomMatrix(rng, 130, 70)
	spec := specFor(src, 32, dist.Grid{R: 1, C: 1}, 1, false)
	p := Build(spec)
	tr := obs.NewTracer(3, len(p.Graph.Tasks))
	p.Graph.Tracer = tr
	if _, err := Run(p, Pool{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) != len(p.Graph.Tasks) {
		t.Fatalf("traced %d events for %d tasks (dropped %d)", len(evs), len(p.Graph.Tasks), tr.Dropped())
	}
	s := obs.Summarize(evs)
	if s.Span <= 0 || s.Busy <= 0 {
		t.Fatalf("summary has no time: %+v", s)
	}
	if s.Flops <= 0 {
		t.Fatalf("summary has no flops: %+v", s)
	}
	if len(s.PerKind) < 2 {
		t.Fatalf("GE2BND should exercise several kernel kinds, got %d", len(s.PerKind))
	}
}

// BenchmarkWarmGE2BND measures the warm sequential GE2BND dispatch path;
// compare with tracing on/off to bound the enabled-tracing overhead.
func BenchmarkWarmGE2BND(b *testing.B) {
	for _, traced := range []struct {
		name string
		on   bool
	}{{"tracing-off", false}, {"tracing-on", true}} {
		b.Run(traced.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			src := nla.RandomMatrix(rng, 96, 64)
			spec := specFor(src, 32, dist.Grid{R: 1, C: 1}, 1, false)
			p := Build(spec)
			g := p.Graph
			if traced.on {
				g.Tracer = obs.NewTracer(1, (b.N+1)*len(g.Tasks))
			}
			ws := g.NewWorkspace()
			for _, task := range g.Tasks {
				if err := g.RunTask(task, ws, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, task := range g.Tasks {
					if err := g.RunTask(task, ws, 0); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
