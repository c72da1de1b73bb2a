package sched

import (
	"time"

	"github.com/tiled-la/bidiag/internal/obs"
)

// SimulateFixedTrace is SimulateFixed with a full schedule trace: every
// task's start/end time and worker assignment, as the obs.Event a
// measured run of the task would record. One unit of model time is unit
// of trace time, so a simulated schedule renders through the same Chrome
// writer as a measured one (cluster.LocalTrace).
func (g *Graph) SimulateFixedTrace(workers int, timeOf func(*Task) float64, unit time.Duration) (SimResult, []obs.Event) {
	at := func(x float64) time.Duration { return time.Duration(x * float64(unit)) }
	events := make([]obs.Event, 0, len(g.Tasks))
	res := g.simulateFixed(workers, timeOf, func(t *Task, worker int, start, d float64) {
		ev := t.event(at(start), at(start+d))
		ev.Worker = int32(worker)
		events = append(events, ev)
	})
	return res, events
}
