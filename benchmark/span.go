package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call. Spans of one operation share Op; Parent is the
// span that caused this one (0 for an operation's root).
type span struct {
	ID, Parent, Op int
	Name           string
	Start, End     time.Duration // offsets from the tracer's origin
	Args           map[string]any
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: concurrent requests are added after they finish, from the
// load generator's timestamps.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(parent, op int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: time.Since(t.origin), End: -1})
	return len(t.spans)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	t.spans[id-1].End = time.Since(t.origin)
}

// add records a span whose interval was measured elsewhere (the load
// generator's own timestamps), so tracing adds nothing to the timed path.
func (t *tracer) add(parent, op int, name string, start, end time.Time, args map[string]any) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin), Args: args})
	return len(t.spans)
}

// selfTimes returns, per span (indexed like spans), its duration minus
// the part of its interval that its child spans cover. Overlapping
// children are counted once and children are clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make([][]span, len(spans))
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			children[p] = append(children[p], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, at := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceEvent is a span in the Chrome-tracing "complete event" form, so
// the file loads in Perfetto or chrome://tracing as it is; the span's
// own identity travels in args.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // start, µs
	Dur  float64        `json:"dur"` // end − start, µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes the spans to path, one lane (tid = op+1) per operation so
// concurrent requests do not interleave.
func writeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "end_us": us(s.End), "self_us": us(self[i])}
		for k, v := range s.Args {
			args[k] = v
		}
		events[i] = traceEvent{Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: s.Op + 1, Args: args}
	}
	blob, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
