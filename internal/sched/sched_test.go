package sched

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/obs"
)

// chainGraph builds a linear chain of n tasks through one handle.
func chainGraph(n int) *Graph {
	g := NewGraph()
	h := g.NewHandle(100, 0)
	for i := 0; i < n; i++ {
		g.AddTask(kernels.GEQRTKind, 0, 1, 10, nil, RW(h))
	}
	return g
}

func TestRAWChain(t *testing.T) {
	g := chainGraph(5)
	if err := g.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	if cp := g.CriticalPath(WeightTime); cp != 5 {
		t.Fatalf("chain critical path = %v, want 5", cp)
	}
	s := g.Summary()
	if s.Edges != 4 || s.Tasks != 5 {
		t.Fatalf("chain should have 4 edges, got %+v", s)
	}
}

func TestIndependentTasksParallel(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 8; i++ {
		h := g.NewHandle(10, 0)
		g.AddTask(kernels.GEQRTKind, 0, 3, 1, nil, RW(h))
	}
	if cp := g.CriticalPath(WeightTime); cp != 3 {
		t.Fatalf("independent tasks cp = %v, want 3", cp)
	}
	res := g.SimulateFixed(4, WeightTime)
	if res.Makespan != 6 {
		t.Fatalf("8 unit tasks on 4 workers: makespan %v, want 6", res.Makespan)
	}
	if res.Utilization != 1 {
		t.Fatalf("perfectly packable load should give utilization 1, got %v", res.Utilization)
	}
}

func TestWARDependency(t *testing.T) {
	g := NewGraph()
	h := g.NewHandle(10, 0)
	w1 := g.AddTask(kernels.GEQRTKind, 0, 1, 0, nil, RW(h))
	r1 := g.AddTask(kernels.UNMQRKind, 0, 1, 0, nil, R(h))
	r2 := g.AddTask(kernels.UNMQRKind, 0, 1, 0, nil, R(h))
	w2 := g.AddTask(kernels.TSQRTKind, 0, 1, 0, nil, RW(h))
	// w1 -> r1, w1 -> r2 (RAW); r1 -> w2, r2 -> w2 (WAR); plus the direct
	// (redundant but harmless) RAW edge w1 -> w2.
	if w1.npred != 0 || r1.npred != 1 || r2.npred != 1 || w2.npred != 3 {
		t.Fatalf("npred wrong: %d %d %d %d", w1.npred, r1.npred, r2.npred, w2.npred)
	}
	// Readers must run in parallel: CP = w1 + r + w2 = 3.
	if cp := g.CriticalPath(WeightTime); cp != 3 {
		t.Fatalf("cp = %v, want 3", cp)
	}
}

func TestWriteOnlySkipsDataTransfer(t *testing.T) {
	g := NewGraph()
	h := g.NewHandle(1000, 0)
	w1 := g.AddTask(kernels.GEQRTKind, 0, 1, 0, nil, RW(h))
	w2 := g.AddTask(kernels.LASETKind, 1, 0, 0, nil, W(h))
	if len(w1.succs) != 1 || w1.succs[0] != w2 {
		t.Fatalf("WAW edge missing")
	}
	if w1.succBytes[0] != 0 {
		t.Fatalf("WriteOnly edge should carry no data, got %d bytes", w1.succBytes[0])
	}
}

func TestRegionIndependence(t *testing.T) {
	// Two handles modeling two regions of one tile: tasks touching
	// different regions must not be ordered.
	g := NewGraph()
	up := g.NewHandle(10, 0)
	lo := g.NewHandle(10, 0)
	g.AddTask(kernels.GEQRTKind, 0, 4, 0, nil, RW(up), RW(lo))
	a := g.AddTask(kernels.UNMQRKind, 0, 6, 0, nil, R(lo))
	b := g.AddTask(kernels.TSQRTKind, 0, 6, 0, nil, RW(up))
	if a.npred != 1 || b.npred != 1 {
		t.Fatalf("both region tasks depend only on the factorization")
	}
	// CP = 4 + 6, not 4 + 6 + 6.
	if cp := g.CriticalPath(WeightTime); cp != 10 {
		t.Fatalf("regions serialized: cp = %v, want 10", cp)
	}
}

func TestRunSequentialOrder(t *testing.T) {
	g := NewGraph()
	h := g.NewHandle(1, 0)
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		g.AddTask(kernels.GEQRTKind, 0, 1, 0, func(*nla.Workspace) { order = append(order, i) }, RW(h))
	}
	g.RunSequential()
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order violated: %v", order)
		}
	}
}

func TestRunParallelRespectsDependencies(t *testing.T) {
	// A diamond: a -> {b, c} -> d. Record completion order.
	g := NewGraph()
	h := g.NewHandle(1, 0)
	var aDone, bDone, cDone atomic.Bool
	g.AddTask(kernels.GEQRTKind, 0, 1, 0, func(*nla.Workspace) { aDone.Store(true) }, RW(h))
	g.AddTask(kernels.UNMQRKind, 0, 1, 0, func(*nla.Workspace) {
		if !aDone.Load() {
			t.Errorf("b ran before a")
		}
		bDone.Store(true)
	}, R(h))
	g.AddTask(kernels.UNMQRKind, 0, 1, 0, func(*nla.Workspace) {
		if !aDone.Load() {
			t.Errorf("c ran before a")
		}
		cDone.Store(true)
	}, R(h))
	g.AddTask(kernels.TSQRTKind, 0, 1, 0, func(*nla.Workspace) {
		if !bDone.Load() || !cDone.Load() {
			t.Errorf("d ran before b/c")
		}
	}, RW(h))
	g.RunParallel(4)
}

func TestRunParallelExecutesAll(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		g := NewGraph()
		var count atomic.Int64
		for i := 0; i < 100; i++ {
			h := g.NewHandle(1, 0)
			g.AddTask(kernels.GEQRTKind, 0, 1, 0, func(*nla.Workspace) { count.Add(1) }, RW(h))
			g.AddTask(kernels.UNMQRKind, 0, 1, 0, func(*nla.Workspace) { count.Add(1) }, RW(h))
		}
		g.RunParallel(workers)
		if count.Load() != 200 {
			t.Fatalf("workers=%d: executed %d of 200", workers, count.Load())
		}
	}
}

func TestRunParallelRepeatable(t *testing.T) {
	// Re-running the same graph must work (exec state resets).
	g := chainGraph(10)
	var n atomic.Int64
	for _, task := range g.Tasks {
		task.Run = func(*nla.Workspace) { n.Add(1) }
	}
	g.RunParallel(2)
	g.RunParallel(3)
	if n.Load() != 20 {
		t.Fatalf("re-execution broken: %d", n.Load())
	}
}

func TestSimulateFixedMatchesCPUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 200, 3)
	cp := g.CriticalPath(WeightTime)
	res := g.SimulateFixed(100000, WeightTime)
	if diff := res.Makespan - cp; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("unbounded simulation %v != critical path %v", res.Makespan, cp)
	}
}

func TestSimulateFixedSingleWorkerIsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 100, 3)
	total := 0.0
	for _, task := range g.Tasks {
		total += task.Weight
	}
	res := g.SimulateFixed(1, WeightTime)
	if d := res.Makespan - total; d > 1e-9 || d < -1e-9 {
		t.Fatalf("1 worker makespan %v != serial time %v", res.Makespan, total)
	}
}

func TestSimulateMonotoneInWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 300, 4)
	prev := g.SimulateFixed(1, WeightTime).Makespan
	for _, w := range []int{2, 4, 8, 16} {
		cur := g.SimulateFixed(w, WeightTime).Makespan
		if cur > prev+1e-9 {
			t.Fatalf("makespan increased with more workers: %v -> %v at %d", prev, cur, w)
		}
		prev = cur
	}
}

func TestSimulateDistributedCommCost(t *testing.T) {
	// Producer on node 0, consumer on node 1: makespan = 1 + (lat + bytes/bw) + 1.
	g := NewGraph()
	h := g.NewHandle(1000, 0)
	g.AddTask(kernels.GEQRTKind, 0, 1, 0, nil, RW(h))
	g.AddTask(kernels.UNMQRKind, 1, 1, 0, nil, R(h))
	res := g.SimulateDistributed(DistConfig{Nodes: 2, WorkersPerNode: 1, Latency: 0.5, BytesPerTime: 1000, TimeOf: WeightTime})
	want := 1 + (0.5 + 1.0) + 1
	if d := res.Makespan - want; d > 1e-9 || d < -1e-9 {
		t.Fatalf("comm-delayed makespan %v, want %v", res.Makespan, want)
	}
	if res.CommVolume != 1000 || res.CommCount != 1 {
		t.Fatalf("comm accounting wrong: %+v", res)
	}
}

func TestSimulateDistributedTransferDedup(t *testing.T) {
	// One producer, three consumers on the same remote node: one transfer.
	g := NewGraph()
	h := g.NewHandle(500, 0)
	g.AddTask(kernels.GEQRTKind, 0, 1, 0, nil, RW(h))
	for i := 0; i < 3; i++ {
		g.AddTask(kernels.UNMQRKind, 1, 1, 0, nil, R(h))
	}
	res := g.SimulateDistributed(DistConfig{Nodes: 2, WorkersPerNode: 3, Latency: 0.1, BytesPerTime: 1000, TimeOf: WeightTime})
	if res.CommCount != 1 || res.CommVolume != 500 {
		t.Fatalf("dedup failed: %+v", res)
	}
}

func TestSimulateDistributedNICSerialization(t *testing.T) {
	// Two large messages to two different nodes must serialize on the
	// producer's NIC.
	g := NewGraph()
	h1 := g.NewHandle(1000, 0)
	h2 := g.NewHandle(1000, 0)
	g.AddTask(kernels.GEQRTKind, 0, 1, 0, nil, RW(h1))
	g.AddTask(kernels.GEQRTKind, 0, 1, 0, nil, RW(h2))
	g.AddTask(kernels.UNMQRKind, 1, 1, 0, nil, R(h1))
	g.AddTask(kernels.UNMQRKind, 2, 1, 0, nil, R(h2))
	res := g.SimulateDistributed(DistConfig{Nodes: 3, WorkersPerNode: 2, Latency: 0, BytesPerTime: 1000, TimeOf: WeightTime})
	// Producers run in parallel on node 0 (2 workers): finish at 1. First
	// message arrives at 2, second at 3 (NIC busy); its consumer ends at 4.
	if d := res.Makespan - 4; d > 1e-9 || d < -1e-9 {
		t.Fatalf("NIC serialization not modeled: makespan %v, want 4", res.Makespan)
	}
}

func TestAcyclicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 50+rng.Intn(100), 1+rng.Intn(5))
		return g.CheckAcyclic() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: list scheduling on w workers is never better than the critical
// path and never worse than the serial time; with w workers it is at most
// serial/w + CP (Graham bound).
func TestGrahamBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 100+rng.Intn(200), 1+rng.Intn(6))
		w := 1 + rng.Intn(16)
		cp := g.CriticalPath(WeightTime)
		serial := 0.0
		for _, t := range g.Tasks {
			serial += t.Weight
		}
		ms := g.SimulateFixed(w, WeightTime).Makespan
		if ms < cp-1e-9 || ms > serial+1e-9 {
			return false
		}
		return ms <= serial/float64(w)+cp+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryPerKind(t *testing.T) {
	g := NewGraph()
	h := g.NewHandle(1, 0)
	g.AddTask(kernels.GEQRTKind, 0, 4, 100, nil, RW(h))
	g.AddTask(kernels.TSQRTKind, 0, 6, 200, nil, RW(h))
	g.AddTask(kernels.TSQRTKind, 0, 6, 200, nil, RW(h))
	s := g.Summary()
	if s.PerKind[kernels.GEQRTKind] != 1 || s.PerKind[kernels.TSQRTKind] != 2 {
		t.Fatalf("per-kind counts wrong: %+v", s.PerKind)
	}
	if s.TotalWeight != 16 || s.TotalFlops != 500 {
		t.Fatalf("totals wrong: %+v", s)
	}
}

func TestTaskName(t *testing.T) {
	g := NewGraph()
	h := g.NewHandle(1, 0)
	task := g.AddTask(kernels.TSMQRKind, 0, 12, 0, nil, RW(h)).SetCoords(3, 4, 2)
	if task.Name() != "TSMQR(3,4|k=2)" {
		t.Fatalf("unexpected name %q", task.Name())
	}
}

// randomGraph generates a layered random DAG via random handle access
// patterns, mimicking tiled-algorithm structure.
func randomGraph(rng *rand.Rand, tasks, handlesPerTask int) *Graph {
	g := NewGraph()
	handles := make([]*Handle, 20)
	for i := range handles {
		handles[i] = g.NewHandle(int32(100+rng.Intn(900)), int32(rng.Intn(3)))
	}
	for i := 0; i < tasks; i++ {
		var acc []Access
		seen := map[int]bool{}
		for a := 0; a < handlesPerTask; a++ {
			hi := rng.Intn(len(handles))
			if seen[hi] {
				continue
			}
			seen[hi] = true
			if rng.Intn(2) == 0 {
				acc = append(acc, R(handles[hi]))
			} else {
				acc = append(acc, RW(handles[hi]))
			}
		}
		node := int32(rng.Intn(3))
		g.AddTask(kernels.Kind(rng.Intn(12)), node, 1+float64(rng.Intn(10)), float64(rng.Intn(100)), nil, acc...)
	}
	return g
}

func TestSimulateFixedTraceConsistency(t *testing.T) {
	// Integer weights tie often; the traced and the plain schedule must
	// still be one schedule, to the bit.
	for seed := int64(1); seed <= 60; seed++ {
		for _, workers := range []int{1, 2, 4, 8} {
			g := randomGraph(rand.New(rand.NewSource(seed)), 150, 3)
			res, _ := g.SimulateFixedTrace(workers, WeightTime, time.Second)
			if plain := g.SimulateFixed(workers, WeightTime); res != plain {
				t.Fatalf("seed %d, %d workers: traced %+v != plain %+v", seed, workers, res, plain)
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 150, 3)
	res, events := g.SimulateFixedTrace(4, WeightTime, time.Second)
	if len(events) != len(g.Tasks) {
		t.Fatalf("trace should contain every task: %d vs %d", len(events), len(g.Tasks))
	}
	// The makespan is the last event's end, in the unit passed.
	var last time.Duration
	for _, e := range events {
		last = max(last, e.End)
	}
	if want := time.Duration(res.Makespan * float64(time.Second)); last != want {
		t.Fatalf("largest End %v != makespan %v", last, want)
	}
	// No worker may run two tasks at once.
	byWorker := map[int32][]obs.Event{}
	for _, e := range events {
		byWorker[e.Worker] = append(byWorker[e.Worker], e)
	}
	for w, evs := range byWorker {
		for i := 0; i < len(evs); i++ {
			for j := i + 1; j < len(evs); j++ {
				a, b := evs[i], evs[j]
				if a.Start < b.End && b.Start < a.End {
					t.Fatalf("worker %d overlap: %+v and %+v", w, a, b)
				}
			}
		}
	}
	// Every task starts after its duration-weighted dependencies end.
	byID := map[int32]obs.Event{}
	for _, e := range events {
		byID[e.ID] = e
	}
	for _, e := range events {
		for _, s := range g.Tasks[e.ID].Succs() {
			if byID[s.ID].Start < e.End {
				t.Fatalf("dependency violated in trace: %+v before %+v", byID[s.ID], e)
			}
		}
	}
}
