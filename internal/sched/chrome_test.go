package sched_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/cluster"
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/obs"
	"github.com/tiled-la/bidiag/internal/sched"
)

// chromeSlice is one X event of a rendered Chrome trace document.
type chromeSlice struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

// renderChrome renders a one-process trace of wpn workers through
// cluster.LocalTrace and WriteChrome, checks the document's metadata and
// returns its X slices in document order.
func renderChrome(t *testing.T, wpn int, events []obs.Event, dropped int64) []chromeSlice {
	t.Helper()
	var buf bytes.Buffer
	if err := cluster.LocalTrace(wpn, events, dropped).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeSlice `json:"traceEvents"`
		Metadata    struct {
			Ranks int `json:"ranks"`
			WPN   int `json:"wpn"`
		} `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not a Chrome trace document: %v", err)
	}
	if doc.Metadata.Ranks != 1 || doc.Metadata.WPN != wpn {
		t.Fatalf("metadata %+v, want 1 rank of %d workers", doc.Metadata, wpn)
	}
	var slices []chromeSlice
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			slices = append(slices, ev)
		}
	}
	return slices
}

// TestMeasuredTraceChromeExport renders a real 2-worker pool trace: one
// X slice per task, each on one of the two worker lanes of rank 0, with
// non-negative timestamps and durations.
func TestMeasuredTraceChromeExport(t *testing.T) {
	g := sched.NewGraph()
	var hs []*sched.Handle
	for i := 0; i < 4; i++ {
		hs = append(hs, g.NewHandle(8, 0))
	}
	for i := 0; i < 16; i++ {
		g.AddTask(kernels.GEQRTKind, 0, 1, 1e6, func(*nla.Workspace) {}, sched.RW(hs[i%len(hs)])).SetCoords(i, 0, i/len(hs))
	}
	tr := obs.NewTracer(2, len(g.Tasks))
	g.Tracer = tr
	if err := g.RunParallel(2); err != nil {
		t.Fatal(err)
	}
	slices := renderChrome(t, 2, tr.Events(), tr.Dropped())
	if len(slices) != 16 {
		t.Fatalf("%d X slices, want 16", len(slices))
	}
	for _, ev := range slices {
		if ev.PID != 0 || ev.TID < 0 || ev.TID > 1 || ev.TS < 0 || ev.Dur < 0 {
			t.Fatalf("slice off its lane or out of range: %+v", ev)
		}
	}
}

// TestWriteChromeTrace renders a simulated schedule of a 3-task chain:
// one GEQRT task slice per task, run one after another.
func TestWriteChromeTrace(t *testing.T) {
	g := sched.NewGraph()
	h := g.NewHandle(100, 0)
	for i := 0; i < 3; i++ {
		g.AddTask(kernels.GEQRTKind, 0, 1, 10, nil, sched.RW(h))
	}
	_, events := g.SimulateFixedTrace(2, sched.WeightTime, time.Millisecond)
	slices := renderChrome(t, 2, events, 0)
	if len(slices) != 3 {
		t.Fatalf("want 3 X slices, got %d", len(slices))
	}
	for i, ev := range slices {
		if ev.Cat != "task" || !strings.HasPrefix(ev.Name, "GEQRT") || ev.PID != 0 {
			t.Fatalf("unexpected slice payload: %+v", ev)
		}
		if i > 0 && ev.TS < slices[i-1].TS+slices[i-1].Dur {
			t.Fatalf("chain slice %d starts before its predecessor ends: %+v after %+v", i, ev, slices[i-1])
		}
	}
}
