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

// SimulateDistributed performs event-driven list scheduling across a
// multi-node machine. Each task runs on its owning node (owner-compute, as
// in the paper's 2D block-cyclic mapping). A read-after-write edge whose
// producer lives on a different node incurs a message delayed by latency
// plus size/bandwidth, serialized through the producer node's NIC; repeated
// transfers of the same datum to the same node are deduplicated, like the
// runtime's data cache.
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

func (g *Graph) SimulateDistributed(cfg DistConfig) DistResult {
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
		free    int
		busy    float64
		nicFree float64
	}
	nodes := make([]nodeState, cfg.Nodes)
	for i := range nodes {
		nodes[i].free = cfg.WorkersPerNode
	}

	// Event kinds: task completion and message arrival. Arrival events
	// carry the enabled successor.
	type distEvent struct {
		at     float64
		task   *Task // completed task (arrival events: the successor to enable)
		finish bool
	}
	var events []distEvent
	push := func(e distEvent) {
		events = append(events, e)
		i := len(events) - 1
		for i > 0 {
			p := (i - 1) / 2
			if events[p].at <= events[i].at {
				break
			}
			events[p], events[i] = events[i], events[p]
			i = p
		}
	}
	pop := func() distEvent {
		top := events[0]
		last := len(events) - 1
		events[0] = events[last]
		events = events[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			s := i
			if l < len(events) && events[l].at < events[s].at {
				s = l
			}
			if r < len(events) && events[r].at < events[s].at {
				s = r
			}
			if s == i {
				break
			}
			events[i], events[s] = events[s], events[i]
			i = s
		}
		return top
	}

	var result DistResult
	transferred := map[int64]float64{} // commKey(producer ID, destNode) → arrival

	enable := func(t *Task, at float64) {
		if at > t.readyTime {
			t.readyTime = at
		}
		t.npred--
		if t.npred == 0 {
			n := &nodes[nodeOf(t)]
			heap.Push(&n.ready, t)
		}
	}

	schedule := func(nodeID int, now float64) {
		n := &nodes[nodeID]
		for n.free > 0 && len(n.ready) > 0 {
			t := heap.Pop(&n.ready).(*Task)
			start := now
			if t.readyTime > start {
				start = t.readyTime
			}
			d := timeOf(t)
			n.busy += d
			n.free--
			push(distEvent{at: start + d, task: t, finish: true})
		}
	}

	// Seed: all zero-predecessor tasks.
	for _, t := range g.Tasks {
		if t.npred == 0 {
			heap.Push(&nodes[nodeOf(t)].ready, t)
		}
	}
	now := 0.0
	for i := range nodes {
		schedule(i, now)
	}

	touched := make(map[int32]bool)
	for len(events) > 0 {
		ev := pop()
		now = ev.at
		if ev.finish {
			t := ev.task
			tNode := nodeOf(t)
			src := &nodes[tNode]
			src.free++
			clear(touched)
			touched[tNode] = true
			for ei, s := range t.succs {
				bytes := t.succBytes[ei]
				sNode := nodeOf(s)
				if sNode == tNode || bytes == 0 || cfg.BytesPerTime == 0 {
					enable(s, now)
					touched[sNode] = true
					continue
				}
				key := commKey(t.ID, sNode)
				arrival, ok := transferred[key]
				if !ok {
					start := now
					if src.nicFree > start {
						start = src.nicFree
					}
					dur := cfg.Latency + float64(bytes)/cfg.BytesPerTime
					arrival = start + dur
					src.nicFree = arrival
					transferred[key] = arrival
					result.CommVolume += float64(bytes)
					result.CommCount++
				}
				push(distEvent{at: arrival, task: s, finish: false})
			}
			for n := range touched {
				schedule(int(n), now)
			}
		} else {
			enable(ev.task, now)
			schedule(int(nodeOf(ev.task)), now)
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
	return result
}
