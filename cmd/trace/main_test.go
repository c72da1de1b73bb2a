package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/cluster"
	"github.com/tiled-la/bidiag/internal/obs"
)

// chromeSpans runs the command and returns the task spans ("X" events)
// of the Chrome document it wrote.
func chromeSpans(t *testing.T, args ...string) []struct{ TS, Dur float64 } {
	t.Helper()
	out := filepath.Join(t.TempDir(), "trace.json")
	if err := run(append(args, "-o", out), io.Discard); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph      string
			TS, Dur float64
		}
		Metadata map[string]any
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Metadata == nil {
		t.Fatal("document has no metadata")
	}
	var spans []struct{ TS, Dur float64 }
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans = append(spans, struct{ TS, Dur float64 }{e.TS, e.Dur})
		}
	}
	return spans
}

// TestSimulated pins the simulated schedule to the one SimulateFixed
// prices: 884 tasks ending at 1498 units, one unit drawn as 1 ms.
func TestSimulated(t *testing.T) {
	spans := chromeSpans(t, "-p", "16", "-q", "8", "-tree", "FlatTS", "-workers", "8")
	end := 0.0
	for _, s := range spans {
		end = max(end, s.TS+s.Dur)
	}
	if len(spans) != 884 || end != 1498e3 {
		t.Fatalf("%d spans ending at %v µs, want 884 ending at 1498 ms", len(spans), end)
	}
}

func TestMeasured(t *testing.T) {
	spans := chromeSpans(t, "-measured", "-m", "96", "-n", "64", "-nb", "32", "-workers", "2")
	// 3×2 tiles under the default Greedy tree: QR(0) GEQRT×3 + UNMQR×3 +
	// TTQRT×2 + TTMQR×2, LQ(0) GELQT + UNMLQ×2, QR(1) GEQRT×2 + TTQRT.
	if len(spans) != 16 {
		t.Fatalf("%d spans, want one per task (16)", len(spans))
	}
}

func TestCluster(t *testing.T) {
	raw := filepath.Join(t.TempDir(), "raw.json")
	f, err := os.Create(raw)
	if err != nil {
		t.Fatal(err)
	}
	evs := []obs.Event{{ID: 0, Start: 0, End: time.Millisecond}, {ID: 1, Worker: 1, Start: time.Millisecond, End: 3 * time.Millisecond}}
	if err := cluster.LocalTrace(2, evs, 0).WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if spans := chromeSpans(t, "-cluster", raw); len(spans) != 2 || spans[1].TS+spans[1].Dur != 3e3 {
		t.Fatalf("spans %+v, want two ending at 3 ms", spans)
	}
}

func TestBadArguments(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	for _, args := range [][]string{
		{"-p", "4", "-q", "8"},
		{"-measured", "-m", "32", "-n", "64", "-nb", "16"},
		{"-tree", "NoSuchTree"},
	} {
		if err := run(append(args, "-o", out), io.Discard); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}
