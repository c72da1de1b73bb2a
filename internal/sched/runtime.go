package sched

import (
	"container/heap"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tiled-la/bidiag/internal/nla"
)

// ErrRuntimeClosed is returned by Runtime.Submit after Close.
var ErrRuntimeClosed = errors.New("sched: runtime closed")

// Runtime is the shared-memory worker loop: a pool that executes MANY task
// graphs concurrently. RunParallel is a Runtime with one job; the serving
// layer keeps one for the life of the process.
// Each Submit admits one graph as a job with its own ready heap; the
// shared workers pick across jobs by fair share (fewest pickups first)
// and within a job by bottom-level priority, so several small
// DAGs keep the machine saturated where one would not — the many-graph
// regime the tiled-algorithms literature argues dataflow runtimes are for.
//
// The pool is elastic in workspace, not in threads: each worker owns one
// scratch arena that grows to the largest declared requirement among the
// jobs it actually runs, so admitting a bigger job never reallocates
// per-task and mixed-size jobs share workers without waste.
//
// Isolation guarantees:
//
//   - A panicking kernel fails its OWN job (Wait returns the error naming
//     the kernel kind); every other job, and the pool, keep running.
//   - Cancelling a job's context stops dispatching its tasks promptly;
//     in-flight tasks finish and Wait returns context.Cause(ctx).
//
// It is the repository's one worker loop, with one admission and one
// completion path: a Submit is the owned job of rank 0 of 1, and a rank
// of a distributed execution (internal/dist) is an owned job on a
// Runtime of its own, fed the completions of remote predecessors through
// Release.
//
// A Graph must be in at most one execution at a time, or in one owned job
// per rank over disjoint owner sets (its dependency counters are live
// state); resubmitting a finished graph is allowed.
type Runtime struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers int
	jobs    []*JobHandle // admitted and unfinished, in admission order
	closed  bool
	wg      sync.WaitGroup

	ready    int           // ready tasks across all jobs
	sleeping int           // workers in cond.Wait that no wake-up has been issued for
	wakeups  int64         // wake-ups issued
	idle     time.Duration // total time workers spent in cond.Wait

	// wsBytes[w] is worker w's current arena size in bytes, maintained
	// with atomic stores so WorkspaceBytes can be scraped without
	// touching rt.mu.
	wsBytes []int64
}

// JobHandle tracks one submitted graph, or one rank's share of it.
type JobHandle struct {
	rt    *Runtime
	g     *Graph
	tasks int // the job's size
	// A job runs the tasks with Node % nodes == rank (a whole graph is
	// rank 0 of 1) and calls hook, when set, after each. lane is added to
	// the worker index to name a task's trace ring.
	hook        func(*Task)
	rank, nodes int32
	lane        int

	ready    readyHeap
	inflight int // dispatched, not yet finished
	undone   int // not yet finished (dispatched or not)
	// vtime is the job's virtual time: the tasks picked from it, offset
	// by the fair-share minimum at admission.
	vtime int64

	stopped bool // no further dispatch: cancelled or failed
	err     error
	done    chan struct{}
	unwatch func() bool // deregisters the ctx watch; nil without one
}

// NewRuntime starts a shared pool of the given size (minimum 1). The pool
// runs until Close.
func NewRuntime(workers int) *Runtime {
	if workers < 1 {
		workers = 1
	}
	rt := &Runtime{workers: workers, wsBytes: make([]int64, workers)}
	rt.cond = sync.NewCond(&rt.mu)
	for w := 0; w < workers; w++ {
		rt.wg.Add(1)
		go rt.worker(w)
	}
	return rt
}

// Workers returns the pool size.
func (rt *Runtime) Workers() int { return rt.workers }

// WorkspaceBytes returns the total bytes currently held by the workers'
// scratch arenas — the pool's resident numerical footprint beyond the
// matrices themselves.
func (rt *Runtime) WorkspaceBytes() int64 {
	var n int64
	for w := range rt.wsBytes {
		n += atomic.LoadInt64(&rt.wsBytes[w])
	}
	return n
}

// RuntimeStats is a snapshot of the worker loop's own counters.
type RuntimeStats struct {
	// Ready is the number of runnable, undispatched tasks across all jobs.
	Ready int
	// Idle is the cumulative time workers have spent asleep waiting for
	// work, measured around cond.Wait only (a worker asleep right now is
	// counted when it wakes).
	Idle time.Duration
	// Wakeups counts the sleeping workers woken so far.
	Wakeups int64
}

// Stats returns the worker loop's counters.
func (rt *Runtime) Stats() RuntimeStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return RuntimeStats{Ready: rt.ready, Idle: rt.idle, Wakeups: rt.wakeups}
}

// wakeLocked wakes up to n sleeping workers (n ≤ 0 wakes none). It is the
// only place the pool signals its condition variable, so Stats().Wakeups
// counts every wake-up. Callers hold rt.mu.
func (rt *Runtime) wakeLocked(n int) {
	n = max(0, min(n, rt.sleeping))
	rt.sleeping -= n
	rt.wakeups += int64(n)
	for ; n > 0; n-- {
		rt.cond.Signal()
	}
}

// InFlight returns the number of admitted, unfinished jobs.
func (rt *Runtime) InFlight() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.jobs)
}

// Submit admits a graph for execution and returns immediately. The job's
// tasks interleave with every other in-flight job's on the shared
// workers. A nil ctx means context.Background(). It is the whole graph
// as one owned job: rank 0 of 1, with no hook.
func (rt *Runtime) Submit(ctx context.Context, g *Graph) (*JobHandle, error) {
	g.ComputeBottomLevels(WeightTime)
	return rt.SubmitOwned(ctx, g, 0, 1, 0, nil)
}

// SubmitOwned admits rank's share of g, the tasks with Node % nodes ==
// rank; the other shares run on other Runtimes over the same graph, or in
// other processes over replicas of it. A task with a predecessor outside
// the share waits for a Release of that predecessor. The job resets,
// decrements and reads only its own tasks' dependence counters, and the
// bottom levels are the caller's to compute beforehand, so the shares of
// one graph may run concurrently.
//
// hook, when not nil, runs after each owned task's kernel, on its
// worker, outside the runtime's lock and before any successor of the
// task is released, so what it snapshots precedes every local writer;
// Wait returns after the last hook has. Worker w records trace events on
// lane+w.
func (rt *Runtime) SubmitOwned(ctx context.Context, g *Graph, rank, nodes, lane int, hook func(*Task)) (*JobHandle, error) {
	h := &JobHandle{rt: rt, g: g, hook: hook, rank: int32(rank), nodes: int32(nodes), lane: lane, done: make(chan struct{})}
	for _, t := range g.Tasks {
		if h.owns(t) {
			t.npred = 0
			h.tasks++
		}
	}
	// Edges point forward, so a task's count is complete when it is reached.
	for _, t := range g.Tasks {
		if h.owns(t) && t.npred == 0 {
			h.ready = append(h.ready, t)
		}
		for _, s := range t.succs {
			if h.owns(s) {
				s.npred++
			}
		}
	}
	return rt.admit(ctx, h)
}

// owns reports whether t is in the job's share; a one-node job owns
// every task.
func (h *JobHandle) owns(t *Task) bool { return h.nodes == 1 || t.Node%h.nodes == h.rank }

// admit queues a job whose initial ready tasks are collected.
func (rt *Runtime) admit(ctx context.Context, h *JobHandle) (*JobHandle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	heap.Init(&h.ready)
	h.undone = h.tasks

	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil, ErrRuntimeClosed
	}
	if ctx.Err() != nil {
		rt.mu.Unlock()
		h.err = context.Cause(ctx)
		close(h.done)
		return h, nil
	}
	if h.undone == 0 {
		rt.mu.Unlock()
		close(h.done)
		return h, nil
	}
	// A newcomer starts at the smallest in-flight virtual time: it gets a
	// fair share immediately without being owed the whole past.
	for i, j := range rt.jobs {
		if i == 0 || j.vtime < h.vtime {
			h.vtime = j.vtime
		}
	}
	rt.jobs = append(rt.jobs, h)
	rt.ready += len(h.ready)
	rt.wakeLocked(len(h.ready))
	// A cancellable job is watched without a goroutine of its own: the
	// callback starts one only if ctx ends first, and retiring the job
	// deregisters it.
	if ctx.Done() != nil {
		h.unwatch = context.AfterFunc(ctx, func() {
			rt.mu.Lock()
			if !h.finishedLocked() {
				h.stopLocked(context.Cause(ctx))
				rt.finishIfDoneLocked(h)
			}
			rt.mu.Unlock()
		})
	}
	rt.mu.Unlock()
	return h, nil
}

// Release tells an owned job that producer, a task outside its share, has
// completed: its successors in the share each lose one predecessor. The
// caller is no worker and takes no task itself, so a sleeping worker is
// woken for every task that becomes ready. A stopped job ignores it.
func (h *JobHandle) Release(producer *Task) {
	rt := h.rt
	rt.mu.Lock()
	if !h.stopped && !h.finishedLocked() {
		h.releaseLocked(producer)
		rt.wakeLocked(rt.ready)
	}
	rt.mu.Unlock()
}

// releaseLocked decrements the owned successors of t, queueing those
// that become ready. Callers hold rt.mu.
func (h *JobHandle) releaseLocked(t *Task) {
	for _, s := range t.succs {
		if !h.owns(s) {
			continue
		}
		s.npred--
		if s.npred == 0 {
			heap.Push(&h.ready, s)
			h.rt.ready++
		}
	}
}

// Wait blocks until the job finishes and returns its error: nil on
// success, context.Cause(ctx) after a cancellation, or the first kernel
// panic.
func (h *JobHandle) Wait() error {
	<-h.done
	return h.err
}

// Done returns a channel closed when the job finishes.
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Stopped reports whether the job no longer dispatches tasks: finished,
// failed, or cancelled (in-flight tasks may still be draining). Tests and
// monitors use it to observe a cancellation deterministically.
func (h *JobHandle) Stopped() bool {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	return h.stopped || h.finishedLocked()
}

// Tasks returns the number of tasks the job runs: the graph's size, or
// its share's.
func (h *JobHandle) Tasks() int { return h.tasks }

// stopLocked abandons all undispatched work with the given cause.
// Callers hold rt.mu.
func (h *JobHandle) stopLocked(err error) {
	if h.stopped {
		return
	}
	h.stopped = true
	h.err = err
	h.undone -= len(h.ready)
	h.rt.ready -= len(h.ready)
	h.ready = h.ready[:0]
}

// finishedLocked reports whether the job has already been retired.
func (h *JobHandle) finishedLocked() bool {
	select {
	case <-h.done:
		return true
	default:
		return false
	}
}

// finishIfDoneLocked retires the job when no work remains: all tasks
// finished, or the job is stopped and its in-flight tasks drained.
func (rt *Runtime) finishIfDoneLocked(h *JobHandle) {
	if h.undone > 0 && !(h.stopped && h.inflight == 0) {
		return // the per-completion case: two counter reads
	}
	if h.finishedLocked() {
		return
	}
	for i, j := range rt.jobs {
		if j == h {
			rt.jobs = append(rt.jobs[:i], rt.jobs[i+1:]...)
			break
		}
	}
	close(h.done)
	if h.unwatch != nil {
		h.unwatch()
	}
	if rt.closed {
		// Workers exit once the pool is closed and the last job retires.
		rt.wakeLocked(rt.workers)
	}
}

// stickySlack is how far (in virtual time, i.e. task pickups) a
// worker's current job may run ahead of the fair-share minimum before the
// worker switches jobs. Sticking to one job preserves cache locality —
// per-task rotation across jobs touches every working set in turn — while
// the bound keeps long jobs from starving their neighbours.
const stickySlack = 4

// pickLocked selects the job to serve next: the worker's previous job
// while it stays within stickySlack of the smallest in-flight virtual
// time, else the job with the smallest virtual time (admission order
// breaking ties).
func (rt *Runtime) pickLocked(prev *JobHandle) *JobHandle {
	var best *JobHandle
	for _, h := range rt.jobs {
		if len(h.ready) == 0 {
			continue
		}
		if best == nil || h.vtime < best.vtime {
			best = h
		}
	}
	if best != nil && prev != nil && prev != best &&
		len(prev.ready) > 0 && prev.vtime <= best.vtime+stickySlack {
		return prev
	}
	return best
}

// workspaces recycles worker workspaces across runtimes: a one-shot call
// starts a runtime of its own, whose workers would otherwise grow fresh
// scratch on every call. The GC empties the list when it sits idle.
var workspaces = nla.FreeList[*nla.Workspace]{New: func() *nla.Workspace { return nla.NewWorkspace(0) }}

func (rt *Runtime) worker(id int) {
	defer rt.wg.Done()
	// The worker's arena grows lazily to the largest requirement among the
	// jobs it serves; a steady mix of shapes reaches a high-water mark and
	// stops allocating.
	ws := workspaces.Get()
	defer workspaces.Put(ws)
	var last *JobHandle
	for {
		rt.mu.Lock()
		var h *JobHandle
		for {
			h = rt.pickLocked(last)
			if h != nil || (rt.closed && len(rt.jobs) == 0) {
				break
			}
			// The only clock reads in the loop: a worker with work to do
			// never gets here.
			rt.sleeping++
			asleep := time.Now()
			rt.cond.Wait()
			rt.idle += time.Since(asleep)
		}
		if h == nil {
			rt.mu.Unlock()
			return
		}
		t := heap.Pop(&h.ready).(*Task)
		rt.ready--
		h.inflight++
		h.vtime++
		last = h
		need := h.g.ScratchElems
		blocking := h.g.Blocking
		rt.mu.Unlock()

		if ws.EnsureCap(need); ws.Cap() != int(atomic.LoadInt64(&rt.wsBytes[id]))/8 {
			atomic.StoreInt64(&rt.wsBytes[id], int64(ws.Cap())*8)
		}
		ws.Blocking = blocking
		err := h.g.RunTask(t, ws, h.lane+id)
		if err != nil {
			// A panicking kernel skipped its Release calls; drop its
			// checkouts so the long-lived worker's arena does not leak
			// capacity across the jobs that follow.
			ws.Reset()
		}
		rt.completeOwned(h, t, err)
	}
}

// completeOwned is the worker's bookkeeping after a task, the one
// completion path: the job's hook first, outside rt.mu, then the release
// of the task's owned successors.
func (rt *Runtime) completeOwned(h *JobHandle, t *Task, err error) {
	if err == nil && h.hook != nil {
		h.hook(t)
	}
	rt.mu.Lock()
	h.inflight--
	h.undone--
	if err != nil {
		h.stopLocked(err)
	}
	if !h.stopped {
		h.releaseLocked(t)
	}
	rt.finishIfDoneLocked(h)
	// This worker takes one ready task itself on its next turn; sleepers
	// are woken only for work beyond that. Waking one for a lone
	// successor makes a chain-like graph hop between cores on every task.
	rt.wakeLocked(rt.ready - 1)
	rt.mu.Unlock()
}

// Close stops the pool: no further Submit is accepted, every in-flight
// job runs to completion, and the workers exit. Close blocks until the
// pool has wound down; it is safe to call once.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	rt.closed = true
	rt.wakeLocked(rt.workers)
	rt.mu.Unlock()
	rt.wg.Wait()
}
