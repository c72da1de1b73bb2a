// Package sched is the data-flow runtime underneath the tiled algorithms.
// It plays the role PaRSEC plays for DPLASMA in the reproduced paper: an
// algorithm is submitted as a sequence of tasks with declared data
// accesses, dependencies are inferred superscalar-style (RAW, WAR, WAW) at
// sub-tile granularity, and the resulting DAG can be executed or analyzed:
//
//   - RunSequential: program order, the numerical reference.
//   - Runtime:       the shared-memory worker loop — a pool that runs many
//     graphs at once, bottom-level priority within a graph and fair
//     share across them. RunParallel is a Runtime with one job.
//   - CriticalPath:  longest weighted path (unbounded resources), used to
//     validate the paper's Section IV formulas.
//   - SimulateDistributed: list scheduling in virtual time on a machine
//     of nodes, with a bandwidth/latency communication model (simdist.go).
//   - SimulateFixed: its one-node case, P virtual cores sharing memory;
//     SimulateFixedTrace also returns the schedule as trace events.
//
// Runtime is the one worker loop and listSchedule the one list
// scheduler, as the paper runs every variant on one dataflow runtime and
// prices every tree with one simulator. A job admitted to a Runtime is
// one rank's share of a graph (SubmitOwned); Submit admits a whole graph
// as rank 0 of 1. A rank of internal/dist runs its share on a Runtime of its
// own, and the frames from its peers Release the remote predecessors of
// its tasks.
//
// A graph may run again: each admission resets its dependence counters
// (a re-armed template, internal/pipeline).
//
// Tasks are deliberately compact (a few pointers and scalars) so that
// graphs with tens of millions of tasks — the paper's largest distributed
// runs — fit in memory when simulated without data.
package sched

import (
	"fmt"
	"time"

	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/obs"
)

// Handle identifies one unit of data for dependency inference — typically
// one region (diagonal block, strict lower, strict upper) of one tile.
// The zero Owner means node 0; Bytes sizes communication in the
// distributed simulator and executor.
type Handle struct {
	Bytes      int32
	Owner      int32
	payload    func() []byte
	restore    func([]byte) int
	lastWriter *Task
	readers    []*Task
}

// SetPayload attaches a serializer that snapshots the datum's current
// bytes. The distributed executor calls it when a read-after-write edge
// crosses a node boundary, to fill the message payload. Simulation-only
// graphs leave it nil and messages carry metadata only.
func (h *Handle) SetPayload(f func() []byte) { h.payload = f }

// SetRestore attaches the deserializer paired with SetPayload: it
// installs a snapshot produced by the payload serializer back into the
// datum's storage and returns the byte count consumed. Multi-process
// executors (dist.ExecuteNode) call it on message arrival so the local
// replica of a remotely-written region holds the producer's bytes before
// any local consumer runs.
func (h *Handle) SetRestore(f func([]byte) int) { h.restore = f }

// Snapshot returns the datum's current serialized bytes, or nil when no
// serializer is attached. Callers must invoke it only at points where the
// datum is quiescent (no kernel writing it may be in flight).
func (h *Handle) Snapshot() []byte {
	if h.payload == nil {
		return nil
	}
	return h.payload()
}

// Restore consumes one snapshot of this datum from the front of buf and
// writes it into local storage, returning the bytes consumed (0 when no
// deserializer is attached — symmetric with a nil Snapshot, so walking a
// concatenated payload handle-by-handle stays aligned). The same
// quiescence rule as Snapshot applies: no kernel reading or writing the
// datum may be in flight.
func (h *Handle) Restore(buf []byte) int {
	if h.restore == nil {
		return 0
	}
	return h.restore(buf)
}

// LastWriter returns the final task that writes this datum (nil for
// read-only inputs). After the graph is fully built this identifies, for
// every datum, the rank that holds its final value under owner-compute
// execution — the enumeration the multi-process gather uses.
func (h *Handle) LastWriter() *Task { return h.lastWriter }

// Task is one kernel invocation in the DAG.
type Task struct {
	ID      int32
	Kind    kernels.Kind
	Node    int32 // owning node for distributed execution; 0 in shared memory
	I, J, K int32 // tile coordinates (i, j, step) for tracing

	Weight float64 // Table I cost in nb³/3 units (critical-path analysis)
	Flops  float64 // modeled flop count (machine-model simulation)
	// Run is the real execution closure (nil in simulation-only graphs).
	// It receives the workspace of the worker executing it: each executor
	// owns one max-sized arena per worker (see Graph.NewWorkspace), so
	// steady-state kernel execution is allocation-free.
	Run func(*nla.Workspace)

	succs       []*Task
	succBytes   []int32     // data carried by each edge (0 for anti-dependencies)
	succHandles [][]*Handle // handles whose data each edge carries (merged edges keep all)
	npred       int32

	prio float64 // bottom level; larger = more critical
}

// Name returns a human-readable task label.
func (t *Task) Name() string {
	return fmt.Sprintf("%s(%d,%d|k=%d)", t.Kind, t.I, t.J, t.K)
}

// Graph accumulates tasks in program order. Submission order is a valid
// topological order by construction: inferred edges always point from an
// earlier task to a later one.
type Graph struct {
	Tasks   []*Task
	handles []*Handle

	// ScratchElems is the largest per-task workspace requirement declared
	// via NeedScratch, in float64 elements. Executors size each worker's
	// arena from it.
	ScratchElems int
	// Blocking is the GEMM cache blocking the workers' workspaces use.
	// The zero value selects nla.DefaultBlocking.
	Blocking nla.Blocking

	// Tracer, when non-nil, receives one obs.Event per executed task from
	// every executor (sequential, pool, shared runtime, owner-compute).
	// Nil — the default — costs one pointer check per task.
	Tracer *obs.Tracer

	// Meter, when non-nil, accumulates aggregate execution feedback
	// (flops, busy time, makespan) into a handful of atomics — the
	// autotuner's lightweight alternative to a full Tracer. Nil costs one
	// pointer check per task, so the tracing-off hot path stays
	// allocation-free.
	Meter *obs.Meter
}

// RunTask executes one task through RunSafe on the given worker's
// workspace, recording a trace event when the graph has a tracer
// attached and aggregate feedback when it has a meter. It is the single
// choke point every executor dispatches through, so measured traces and
// tuner feedback cover all execution paths identically.
func (g *Graph) RunTask(t *Task, ws *nla.Workspace, worker int) error {
	tr, mt := g.Tracer, g.Meter
	if tr == nil && mt == nil {
		return t.RunSafe(ws)
	}
	start := time.Now()
	err := t.RunSafe(ws)
	end := time.Now()
	if mt != nil {
		mt.Record(t.Flops, start, end)
	}
	if tr != nil {
		origin := tr.Origin()
		tr.Ring(worker).Record(t.event(start.Sub(origin), end.Sub(origin)))
	}
	return err
}

// event is the trace record of t over [start, end), measured or
// simulated; a ring stamps the worker when it records it.
func (t *Task) event(start, end time.Duration) obs.Event {
	return obs.Event{
		Kind:  t.Kind,
		ID:    t.ID,
		Node:  t.Node,
		I:     t.I,
		J:     t.J,
		K:     t.K,
		Flops: t.Flops,
		Start: start,
		End:   end,
	}
}

// NewGraph returns an empty task graph.
func NewGraph() *Graph { return &Graph{} }

// NeedScratch raises the per-worker workspace requirement to at least
// elems float64s. Builders call it once per submitted task with the
// task's kernels.ScratchSize.
func (g *Graph) NeedScratch(elems int) {
	if elems > g.ScratchElems {
		g.ScratchElems = elems
	}
}

// NewWorkspace returns a worker workspace pre-sized for the graph's
// declared scratch requirement, carrying the graph's GEMM blocking.
func (g *Graph) NewWorkspace() *nla.Workspace {
	ws := nla.NewWorkspace(g.ScratchElems)
	ws.Blocking = g.Blocking
	return ws
}

// NewHandle registers a datum of the given size owned by the given node.
func (g *Graph) NewHandle(bytes, owner int32) *Handle {
	h := &Handle{Bytes: bytes, Owner: owner}
	g.handles = append(g.handles, h)
	return h
}

// Handles returns every handle registered on the graph in registration
// order — deterministic for identical builds, which is what lets two
// processes that built the same graph agree on a gather enumeration
// without exchanging metadata. Read-only use.
func (g *Graph) Handles() []*Handle { return g.handles }

// Access pairs a handle with an access mode at task submission.
type Access struct {
	H    *Handle
	Mode AccessMode
}

// AccessMode describes how a task touches a handle.
type AccessMode int

const (
	// Read: the task consumes the current value (RAW edge from the last
	// writer, carrying data).
	Read AccessMode = iota
	// ReadWrite: the task updates the value in place (RAW edge from the
	// last writer carrying data, WAR edges from readers).
	ReadWrite
	// WriteOnly: the task overwrites the value without reading it (WAW and
	// WAR ordering edges, but no data transfer).
	WriteOnly
)

// R, RW and W are convenience constructors for Access values.
func R(h *Handle) Access  { return Access{H: h, Mode: Read} }
func RW(h *Handle) Access { return Access{H: h, Mode: ReadWrite} }
func W(h *Handle) Access  { return Access{H: h, Mode: WriteOnly} }

// AddTask appends a task touching the given handles and infers its
// dependencies. node selects the owner for distributed simulation.
func (g *Graph) AddTask(kind kernels.Kind, node int32, weight, flops float64, run func(*nla.Workspace), accesses ...Access) *Task {
	t := &Task{
		ID:     int32(len(g.Tasks)),
		Kind:   kind,
		Node:   node,
		Weight: weight,
		Flops:  flops,
		Run:    run,
	}
	for _, a := range accesses {
		h := a.H
		switch a.Mode {
		case Read:
			g.addEdge(h.lastWriter, t, h.Bytes, h)
			h.readers = append(h.readers, t)
		case ReadWrite:
			g.addEdge(h.lastWriter, t, h.Bytes, h)
			for _, r := range h.readers {
				g.addEdge(r, t, 0, h)
			}
			h.lastWriter = t
			h.readers = h.readers[:0]
		case WriteOnly:
			g.addEdge(h.lastWriter, t, 0, h)
			for _, r := range h.readers {
				g.addEdge(r, t, 0, h)
			}
			h.lastWriter = t
			h.readers = h.readers[:0]
		}
	}
	g.Tasks = append(g.Tasks, t)
	return t
}

// SetCoords attaches tile coordinates to the most recently added task for
// tracing; it returns the task for chaining.
func (t *Task) SetCoords(i, j, k int) *Task {
	t.I, t.J, t.K = int32(i), int32(j), int32(k)
	return t
}

func (g *Graph) addEdge(from, to *Task, bytes int32, h *Handle) {
	if from == nil || from == to {
		return
	}
	// Cheap duplicate suppression: repeated consecutive edges are common
	// (a task reading several regions last written by the same producer).
	// The merged edge keeps the largest byte count — the figure the
	// simulator charges — but remembers every distinct handle, so a
	// message built from the edge carries all the regions the consumer
	// reads.
	if n := len(from.succs); n > 0 && from.succs[n-1] == to {
		if bytes > from.succBytes[n-1] {
			from.succBytes[n-1] = bytes
		}
		hs := from.succHandles[n-1]
		for _, seen := range hs {
			if seen == h {
				return
			}
		}
		from.succHandles[n-1] = append(hs, h)
		return
	}
	from.succs = append(from.succs, to)
	from.succBytes = append(from.succBytes, bytes)
	from.succHandles = append(from.succHandles, []*Handle{h})
	to.npred++
}

// resetExecState restores per-task predecessor counters so that a graph
// may be simulated again.
func (g *Graph) resetExecState() {
	for _, t := range g.Tasks {
		t.npred = 0
	}
	for _, t := range g.Tasks {
		for _, s := range t.succs {
			s.npred++
		}
	}
}

// Stats summarizes a graph.
type Stats struct {
	Tasks       int
	Edges       int
	TotalWeight float64
	TotalFlops  float64
	PerKind     map[kernels.Kind]int
}

// Summary computes aggregate statistics of the DAG.
func (g *Graph) Summary() Stats {
	s := Stats{Tasks: len(g.Tasks), PerKind: map[kernels.Kind]int{}}
	for _, t := range g.Tasks {
		s.Edges += len(t.succs)
		s.TotalWeight += t.Weight
		s.TotalFlops += t.Flops
		s.PerKind[t.Kind]++
	}
	return s
}

// CheckAcyclic verifies that every edge points forward in submission
// order, which guarantees acyclicity. It exists as an executable sanity
// check for tests; the property holds by construction.
func (g *Graph) CheckAcyclic() error {
	for _, t := range g.Tasks {
		for _, s := range t.succs {
			if s.ID <= t.ID {
				return fmt.Errorf("sched: backward edge %d -> %d", t.ID, s.ID)
			}
		}
	}
	return nil
}

// Prio returns the task's bottom level as computed by the most recent
// ComputeBottomLevels call.
func (t *Task) Prio() float64 { return t.prio }

// Succs returns the task's successor list (read-only use).
func (t *Task) Succs() []*Task { return t.succs }

// EdgeBytes returns the data volume carried by the i-th successor edge
// (0 for pure ordering edges: anti- and output dependencies).
func (t *Task) EdgeBytes(i int) int32 { return t.succBytes[i] }

// EdgeHandles returns the handles whose data the i-th successor edge
// carries (several when consecutive edges to the same task were merged).
// Ordering edges still reference the handle that induced them.
func (t *Task) EdgeHandles(i int) []*Handle { return t.succHandles[i] }
