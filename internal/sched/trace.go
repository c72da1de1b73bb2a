package sched

import (
	"container/heap"
	"time"

	"github.com/tiled-la/bidiag/internal/obs"
)

// SimulateFixedTrace is SimulateFixed with a full schedule trace: every
// task's start/end time and worker assignment, as the obs.Event a
// measured run of the task would record. One unit of model time is unit
// of trace time, so a simulated schedule renders through the same Chrome
// writer as a measured one (cluster.LocalTrace).
func (g *Graph) SimulateFixedTrace(workers int, timeOf func(*Task) float64, unit time.Duration) (SimResult, []obs.Event) {
	if workers < 1 {
		workers = 1
	}
	g.resetExecState()
	g.ComputeBottomLevels(timeOf)

	var ready ReadyHeap
	for _, t := range g.Tasks {
		if t.npred == 0 {
			ready = append(ready, t)
		}
	}
	heap.Init(&ready)

	type runSlot struct {
		at     float64
		task   *Task
		worker int
	}
	var running []runSlot
	pushRun := func(r runSlot) {
		running = append(running, r)
		i := len(running) - 1
		for i > 0 {
			p := (i - 1) / 2
			if running[p].at <= running[i].at {
				break
			}
			running[p], running[i] = running[i], running[p]
			i = p
		}
	}
	popRun := func() runSlot {
		top := running[0]
		last := len(running) - 1
		running[0] = running[last]
		running = running[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			s := i
			if l < len(running) && running[l].at < running[s].at {
				s = l
			}
			if r < len(running) && running[r].at < running[s].at {
				s = r
			}
			if s == i {
				break
			}
			running[i], running[s] = running[s], running[i]
			i = s
		}
		return top
	}

	freeWorkers := make([]int, workers)
	for i := range freeWorkers {
		freeWorkers[i] = workers - 1 - i // pop from the back → worker 0 first
	}
	now, busy := 0.0, 0.0
	done := 0
	at := func(x float64) time.Duration { return time.Duration(x * float64(unit)) }
	events := make([]obs.Event, 0, len(g.Tasks))
	for done < len(g.Tasks) {
		for len(freeWorkers) > 0 && len(ready) > 0 {
			t := heap.Pop(&ready).(*Task)
			w := freeWorkers[len(freeWorkers)-1]
			freeWorkers = freeWorkers[:len(freeWorkers)-1]
			d := timeOf(t)
			busy += d
			ev := t.event(at(now), at(now+d))
			ev.Worker = int32(w)
			events = append(events, ev)
			pushRun(runSlot{at: now + d, task: t, worker: w})
		}
		if len(running) == 0 {
			break
		}
		r := popRun()
		now = r.at
		freeWorkers = append(freeWorkers, r.worker)
		done++
		for _, s := range r.task.succs {
			s.npred--
			if s.npred == 0 {
				heap.Push(&ready, s)
			}
		}
	}
	util := 0.0
	if now > 0 {
		util = busy / (float64(workers) * now)
	}
	return SimResult{Makespan: now, BusyTime: busy, Utilization: util, Tasks: done}, events
}
