package sched_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/machine"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/trees"
)

// scheduleGoldenFile pins the shared-memory list schedule of real GE2BND
// and R-BIDIAG DAGs, one "name result trace" line per configuration:
// result digests SimulateFixed's makespan and busy time to the bit, trace
// digests SimulateFixedTrace's events (task, core, start, end) in the
// order they start. The digests were recorded before SimulateFixed and
// SimulateDistributed shared one event loop; the planner, the critical
// path reconciliation and cmd/trace read these schedules, so a change to
// the loop must leave every digest alone.
const scheduleGoldenFile = "testdata/schedule_golden.txt"

// scheduleTimeFn is one duration model of the golden grid, with the trace
// unit that keeps its task durations well resolved.
type scheduleTimeFn struct {
	name string
	of   func(*sched.Task) float64
	unit time.Duration
}

// scheduleCase is one configuration of the golden grid.
type scheduleCase struct {
	name    string
	g       *sched.Graph
	workers int
	tf      scheduleTimeFn
}

// scheduleCases calls f on every configuration of the grid: shapes ×
// trees × BIDIAG/R-BIDIAG × duration models × core counts, at nb 64, each
// graph built as the planner builds its candidates (Gamma 2, AUTO sized
// for the cores).
func scheduleCases(f func(scheduleCase)) {
	shapes := [][2]int{{256, 256}, {768, 768}, {1024, 256}, {2048, 256}, {320, 192}, {640, 640}, {4096, 256}, {200, 130}}
	timeFns := []scheduleTimeFn{
		{"weight", sched.WeightTime, time.Second},
		{"flops", sched.FlopsTime, time.Nanosecond},
		{"miriel", machine.Miriel().TimeOf, time.Second},
	}
	for _, s := range shapes {
		sh := core.ShapeOf(s[0], s[1], 64)
		for _, tr := range []trees.Kind{trees.Auto, trees.FlatTS, trees.FlatTT, trees.Greedy} {
			for _, alg := range []string{"bidiag", "rbidiag"} {
				for _, w := range []int{1, 2, 3, 4, 8, 24} {
					g := sched.NewGraph()
					cfg := core.Config{Tree: tr, Gamma: 2, Cores: w}
					if alg == "rbidiag" {
						core.BuildRBidiag(g, sh, nil, cfg)
					} else {
						core.BuildBidiag(g, sh, nil, cfg)
					}
					for _, tf := range timeFns {
						f(scheduleCase{fmt.Sprintf("%dx%d/%s/%s/%s/w%d", s[0], s[1], tr, alg, tf.name, w), g, w, tf})
					}
				}
			}
		}
	}
}

// scheduleDigest is a short sha256 of the given words.
func scheduleDigest(vs ...int64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func resultDigest(makespan, busy float64) string {
	return scheduleDigest(int64(math.Float64bits(makespan)), int64(math.Float64bits(busy)))
}

func readScheduleGolden(t *testing.T) map[string][2]string {
	f, err := os.Open(scheduleGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][2]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) != 3 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[fs[0]] = [2]string{fs[1], fs[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestScheduleGolden holds SimulateFixed, SimulateFixedTrace and the
// one-node SimulateDistributed to the recorded shared-memory schedule.
func TestScheduleGolden(t *testing.T) {
	want := readScheduleGolden(t)
	n, bad := 0, 0
	mismatch := func(c scheduleCase, entry, got, golden string) {
		if bad++; bad <= 20 {
			t.Errorf("%s: %s digest %s, golden %q", c.name, entry, got, golden)
		}
	}
	scheduleCases(func(c scheduleCase) {
		n++
		w, ok := want[c.name]
		if !ok {
			mismatch(c, "any", "-", "")
			return
		}
		fixed := c.g.SimulateFixed(c.workers, c.tf.of)
		if fixed.Tasks != len(c.g.Tasks) {
			t.Errorf("%s: %d of %d tasks scheduled", c.name, fixed.Tasks, len(c.g.Tasks))
		}
		if d := resultDigest(fixed.Makespan, fixed.BusyTime); d != w[0] {
			mismatch(c, "SimulateFixed", d, w[0])
		}
		traced, events := c.g.SimulateFixedTrace(c.workers, c.tf.of, c.tf.unit)
		if traced != fixed {
			t.Errorf("%s: traced %+v != plain %+v", c.name, traced, fixed)
		}
		vs := make([]int64, 0, 4*len(events))
		for _, e := range events {
			vs = append(vs, int64(e.ID), int64(e.Worker), int64(e.Start), int64(e.End))
		}
		if d := scheduleDigest(vs...); d != w[1] {
			mismatch(c, "SimulateFixedTrace", d, w[1])
		}
		one := c.g.SimulateDistributed(sched.DistConfig{Nodes: 1, WorkersPerNode: c.workers, TimeOf: c.tf.of})
		if d := resultDigest(one.Makespan, one.BusyTime); d != w[0] {
			mismatch(c, "SimulateDistributed", d, w[0])
		}
		if one.CommCount != 0 || one.CommVolume != 0 {
			t.Errorf("%s: one node sent %d messages", c.name, one.CommCount)
		}
	})
	if n != len(want) {
		t.Errorf("%d configurations, golden file has %d", n, len(want))
	}
	if bad > 0 {
		t.Errorf("%d digests differ over %d configurations", bad, n)
	}
}

// TestSimulateDistributedDeterministic runs one distributed simulation
// where communication is free, so that many completions and enablings
// tie in time, and requires the same schedule every time.
func TestSimulateDistributedDeterministic(t *testing.T) {
	sh := core.ShapeOf(128, 128, 16)
	grid := dist.SquareGrid(6)
	g := sched.NewGraph()
	core.BuildBidiag(g, sh, nil, dist.Defaults(sh, grid, 2).Configure())
	cfg := sched.DistConfig{Nodes: 6, WorkersPerNode: 2, Latency: 0, BytesPerTime: 0}
	first := g.SimulateDistributed(cfg)
	for run := 1; run < 40; run++ {
		res := g.SimulateDistributed(cfg)
		if res.Makespan != first.Makespan || res.BusyTime != first.BusyTime {
			t.Fatalf("run %d: makespan %v busy %v, first run %v and %v",
				run, res.Makespan, res.BusyTime, first.Makespan, first.BusyTime)
		}
		for i, b := range res.NodeBusy {
			if b != first.NodeBusy[i] {
				t.Fatalf("run %d: node %d busy %v, first run %v", run, i, b, first.NodeBusy[i])
			}
		}
	}
}
