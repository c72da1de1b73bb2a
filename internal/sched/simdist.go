package sched

import (
	"container/heap"
	"fmt"
	"math"
)

// DistConfig parameterizes the distributed-memory simulator. Durations are
// in seconds when TimeOf returns seconds; the communication parameters then
// follow the paper's platform (miriel: 24 cores per node, InfiniBand QDR at
// 40 Gb/s).
type DistConfig struct {
	Nodes          int
	WorkersPerNode int
	// Latency is the per-message injection latency in time units.
	Latency float64
	// BytesPerTime is the network bandwidth (bytes per time unit). Zero
	// disables communication cost entirely.
	BytesPerTime float64
	// TimeOf converts a task into a duration.
	TimeOf func(*Task) float64
}

// DistResult reports a distributed simulation.
type DistResult struct {
	Makespan    float64
	BusyTime    float64
	Utilization float64   // BusyTime / (Nodes × WorkersPerNode × Makespan)
	CommVolume  float64   // total bytes moved between nodes
	CommCount   int       // number of inter-node transfers
	NodeBusy    []float64 // per-node busy time
}

// commKey packs a (producer task, destination node) pair into the
// simulator's dedup map key: the task ID occupies the high 32 bits and
// the node the low 32. Both values are int32, so the packing cannot
// collide; the guard keeps a corrupted negative node from sign-extending
// into the task bits.
func commKey(task, node int32) int64 {
	if node < 0 {
		panic(fmt.Sprintf("sched: negative node %d in comm key", node))
	}
	return int64(task)<<32 | int64(node)
}

// SimulateDistributed performs event-driven list scheduling across a
// multi-node machine. Each task runs on its owning node (owner-compute, as
// in the paper's 2D block-cyclic mapping). A read-after-write edge whose
// producer lives on a different node incurs a message delayed by latency
// plus size/bandwidth, serialized through the producer node's NIC; repeated
// transfers of the same datum to the same node are deduplicated, like the
// runtime's data cache. One node is SimulateFixed, bit for bit.
func (g *Graph) SimulateDistributed(cfg DistConfig) DistResult {
	res, _ := g.listSchedule(cfg, nil)
	return res
}

// simEvent is an event of the list scheduler: the completion of task on
// core worker of its node, or the arrival at task's node of a datum task
// waits for.
type simEvent struct {
	at      float64
	task    *Task
	worker  int32
	arrival bool
}

// simEvents is the scheduler's event queue, a min-heap on (time,
// completion before arrival, task ID): a total order, so the schedule
// does not depend on the order events were queued in.
type simEvents []simEvent

func (h simEvents) Len() int { return len(h) }
func (h simEvents) Less(i, j int) bool {
	a, b := &h[i], &h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.arrival != b.arrival {
		return b.arrival
	}
	return a.task.ID < b.task.ID
}
func (h simEvents) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *simEvents) Push(x any)   { *h = append(*h, x.(simEvent)) }
func (h *simEvents) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// listSchedule is the one list scheduler behind SimulateFixed,
// SimulateFixedTrace and SimulateDistributed. A node's free core with
// the lowest number takes the ready task of greatest bottom level. Events
// pop in simEvents order, and after each one the nodes it touched fill
// their free cores. start, when non-nil, sees every task as it starts.
// It also returns the number of tasks that completed.
func (g *Graph) listSchedule(cfg DistConfig, start func(t *Task, worker int, at, d float64)) (DistResult, int) {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.Nodes > math.MaxInt32 {
		panic(fmt.Sprintf("sched: %d nodes overflow the 32-bit comm key", cfg.Nodes))
	}
	if cfg.WorkersPerNode < 1 {
		cfg.WorkersPerNode = 1
	}
	timeOf := cfg.TimeOf
	if timeOf == nil {
		timeOf = WeightTime
	}
	g.resetExecState()
	g.ComputeBottomLevels(timeOf)

	// Graphs built for a larger machine may be simulated on fewer nodes;
	// fold the ownership map rather than crash.
	nodeOf := func(t *Task) int32 { return t.Node % int32(cfg.Nodes) }

	type nodeState struct {
		ready   readyHeap
		free    []int32 // idle cores, the lowest on top
		busy    float64
		nicFree float64
	}
	nodes := make([]nodeState, cfg.Nodes)
	for i := range nodes {
		nodes[i].free = make([]int32, cfg.WorkersPerNode)
		for w := range nodes[i].free {
			nodes[i].free[w] = int32(cfg.WorkersPerNode - 1 - w)
		}
	}
	for _, t := range g.Tasks {
		if t.npred == 0 {
			heap.Push(&nodes[nodeOf(t)].ready, t)
		}
	}

	var events simEvents
	schedule := func(id int32, now float64) {
		n := &nodes[id]
		for len(n.free) > 0 && len(n.ready) > 0 {
			t := heap.Pop(&n.ready).(*Task)
			w := n.free[len(n.free)-1]
			n.free = n.free[:len(n.free)-1]
			d := timeOf(t)
			n.busy += d
			if start != nil {
				start(t, int(w), now, d)
			}
			heap.Push(&events, simEvent{at: now + d, task: t, worker: w})
		}
	}
	enable := func(t *Task) {
		if t.npred--; t.npred == 0 {
			heap.Push(&nodes[nodeOf(t)].ready, t)
		}
	}

	for i := range nodes {
		schedule(int32(i), 0)
	}
	var result DistResult
	transferred := map[int64]float64{} // commKey(producer ID, destNode) → arrival
	now, done := 0.0, 0
	var touched []int32
	for len(events) > 0 {
		ev := heap.Pop(&events).(simEvent)
		now = ev.at
		t := ev.task
		tNode := nodeOf(t)
		if ev.arrival {
			enable(t)
			schedule(tNode, now)
			continue
		}
		done++
		src := &nodes[tNode]
		src.free = append(src.free, ev.worker)
		touched = append(touched[:0], tNode)
		for ei, s := range t.succs {
			bytes := t.succBytes[ei]
			sNode := nodeOf(s)
			if sNode == tNode || bytes == 0 || cfg.BytesPerTime == 0 {
				enable(s)
				touched = append(touched, sNode)
				continue
			}
			key := commKey(t.ID, sNode)
			arrival, ok := transferred[key]
			if !ok {
				arrival = max(now, src.nicFree) + (cfg.Latency + float64(bytes)/cfg.BytesPerTime)
				src.nicFree = arrival
				transferred[key] = arrival
				result.CommVolume += float64(bytes)
				result.CommCount++
			}
			heap.Push(&events, simEvent{at: arrival, task: s, arrival: true})
		}
		// A node fills its cores from its own queue alone, so the order
		// the touched nodes are visited in does not change the schedule.
		for _, n := range touched {
			schedule(n, now)
		}
	}

	result.Makespan = now
	result.NodeBusy = make([]float64, cfg.Nodes)
	for i := range nodes {
		result.NodeBusy[i] = nodes[i].busy
		result.BusyTime += nodes[i].busy
	}
	if now > 0 {
		result.Utilization = result.BusyTime / (float64(cfg.Nodes*cfg.WorkersPerNode) * now)
	}
	return result, done
}
