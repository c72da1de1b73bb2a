package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/obs"
)

// traceFrame is the post-job control frame every peer ships to the head
// once its executor has returned. It is the end-of-job barrier: a rank's
// receiver keeps reading the job plane until its NIC has drained, which
// is after its gather went out, so without it the head could start job
// J+1 and land J+1's first frames in a peer's job-J receiver. After a
// traced job it also carries the rank's trace: its collected events,
// tracer origin, ring drops, and the wire-stat deltas measured over
// exactly the frames its events describe. Seq echoes the job's sequence
// number so the head can discard a stale frame left over from an aborted
// earlier job.
type traceFrame struct {
	Op             string      `json:"op"` // opTrace
	Seq            int64       `json:"seq"`
	Rank           int         `json:"rank"`
	WPN            int         `json:"wpn"`
	OriginUnixNano int64       `json:"origin_unix_nano"`
	Dropped        int64       `json:"dropped"`
	WireFrames     int64       `json:"wire_frames"`
	WireBytes      int64       `json:"wire_bytes"`
	PayloadBytes   int64       `json:"payload_bytes"`
	Events         []obs.Event `json:"events,omitempty"`
}

const opTrace = "trace"

// frameHeader starts a control frame — u32 JSON length | JSON — with room
// for extra bytes of raw data after the header.
func frameHeader(hdr any, extra int) ([]byte, error) {
	js, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 4+len(js), 4+len(js)+extra)
	binary.LittleEndian.PutUint32(buf, uint32(len(js)))
	copy(buf[4:], js)
	return buf, nil
}

// splitFrame parses a control frame's JSON header into hdr and returns
// the raw data after it. The payload comes off the wire: the header
// length is checked before it slices anything.
func splitFrame(payload []byte, hdr any) (rest []byte, err error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("cluster: control frame too short (%d bytes)", len(payload))
	}
	hl := binary.LittleEndian.Uint32(payload)
	// The sum must be computed in uint64: 4+hl in uint32 wraps for
	// hl >= 0xFFFFFFFC and a corrupt frame would pass the check.
	if uint64(hl)+4 > uint64(len(payload)) {
		return nil, fmt.Errorf("cluster: control header length %d exceeds frame", hl)
	}
	end := 4 + int(hl)
	if err := json.Unmarshal(payload[4:end], hdr); err != nil {
		return nil, fmt.Errorf("cluster: control header: %w", err)
	}
	return payload[end:], nil
}

// traceFrameOf closes one rank's job; tr is nil when it was not traced.
// A traced frame holds the tracer's events and the wire counters'
// advance since the mark taken (wireMark) before the first frame the
// events describe. A peer takes it before the frame itself goes out, so
// that frame is in neither the delta nor the events and per-rank
// send-event byte sums stay equal to the counters.
func traceFrameOf(seq int64, rank, wpn int, tr *obs.Tracer, dx *demux, mark [3]int64) traceFrame {
	tf := traceFrame{Op: opTrace, Seq: seq, Rank: rank, WPN: wpn}
	if tr != nil {
		frames, wire, payload := dx.WireStats()
		tf.OriginUnixNano, tf.Dropped, tf.Events = tr.Origin().UnixNano(), tr.Dropped(), tr.Events()
		tf.WireFrames, tf.WireBytes, tf.PayloadBytes = frames-mark[0], wire-mark[1], payload-mark[2]
	}
	return tf
}

func wireMark(dx *demux) [3]int64 {
	frames, wire, payload := dx.WireStats()
	return [3]int64{frames, wire, payload}
}

// decodeTraceFrame parses a trace gather control frame (a header with no
// data after it).
func decodeTraceFrame(payload []byte) (traceFrame, error) {
	var tf traceFrame
	if _, err := splitFrame(payload, &tf); err != nil {
		return tf, err
	}
	if tf.Op != opTrace {
		return tf, fmt.Errorf("cluster: expected a trace frame, got op %q", tf.Op)
	}
	return tf, nil
}

// ClockInfo is the head-measured clock relation to one rank, copied into
// the merged trace so an offline reader knows how timestamps were
// aligned and how much error the alignment can carry (±RTT/2).
type ClockInfo struct {
	Rank        int   `json:"rank"`
	OffsetNanos int64 `json:"offset_nanos"`
	RTTNanos    int64 `json:"rtt_nanos"`
}

// WireDelta is one rank's transport-counter deltas over the traced job —
// the reference figures the rank's send events must sum to.
type WireDelta struct {
	Rank         int   `json:"rank"`
	Frames       int64 `json:"frames"`
	WireBytes    int64 `json:"wire_bytes"`
	PayloadBytes int64 `json:"payload_bytes"`
}

// MergedTrace is one cluster job's multi-rank trace: every rank's task
// and comm events with Start/End expressed on the head's clock (offsets
// from the head tracer's origin), plus the clock and wire metadata the
// merge used. It is the raw interchange format (`?format=raw`,
// cmd/trace -cluster) and the input of the Chrome renderer and of
// critpath.ReconcileComm.
type MergedTrace struct {
	Grid           string      `json:"grid"`
	Ranks          int         `json:"ranks"`
	WPN            int         `json:"wpn"`
	OriginUnixNano int64       `json:"origin_unix_nano"`
	Events         []obs.Event `json:"events"`
	Dropped        []int64     `json:"dropped"`
	Clock          []ClockInfo `json:"clock"`
	Wire           []WireDelta `json:"wire"`
}

// DroppedTotal sums the per-rank trace-ring drops.
func (mt *MergedTrace) DroppedTotal() int64 {
	var n int64
	for _, d := range mt.Dropped {
		n += d
	}
	return n
}

// WriteJSON writes the raw merged trace for offline rendering.
func (mt *MergedTrace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(mt)
}

// ParseMergedTrace reads a raw merged trace written by WriteJSON.
func ParseMergedTrace(r io.Reader) (*MergedTrace, error) {
	var mt MergedTrace
	if err := json.NewDecoder(r).Decode(&mt); err != nil {
		return nil, fmt.Errorf("cluster: parse merged trace: %w", err)
	}
	if mt.Ranks <= 0 || mt.WPN <= 0 {
		return nil, fmt.Errorf("cluster: merged trace has invalid shape (ranks %d, wpn %d)", mt.Ranks, mt.WPN)
	}
	return &mt, nil
}

// LocalTrace wraps one process's trace — a pool job's measured events or
// a simulated schedule — as the one-rank, no-frame case of a merged
// trace, so it renders through the same WriteChrome as a mesh job.
func LocalTrace(wpn int, events []obs.Event, dropped int64) *MergedTrace {
	return &MergedTrace{Grid: "1x1", Ranks: 1, WPN: wpn, Events: events, Dropped: []int64{dropped}}
}

// mergeTraces aligns every rank's events onto the head's clock; frames[0]
// is the head's own. For a peer event recorded at peer-clock instant
// origin_p + Start, the head-clock instant is that minus the
// head-measured offset to the peer (offset = peerClock − headClock),
// re-expressed as an offset from the head's own tracer origin.
func mergeTraces(grid dist.Grid, frames []traceFrame, clock []ClockInfo) *MergedTrace {
	n, head := grid.Nodes(), frames[0]
	mt := &MergedTrace{
		Grid:           grid.String(),
		Ranks:          n,
		WPN:            head.WPN,
		OriginUnixNano: head.OriginUnixNano,
		Dropped:        make([]int64, n),
		Clock:          clock,
		Wire:           make([]WireDelta, 0, n),
	}
	offsets := make(map[int]int64, len(clock))
	for _, c := range clock {
		offsets[c.Rank] = c.OffsetNanos
	}
	for _, tf := range frames {
		shift := time.Duration(tf.OriginUnixNano - head.OriginUnixNano - offsets[tf.Rank])
		for _, ev := range tf.Events {
			ev.Start += shift
			ev.End += shift
			mt.Events = append(mt.Events, ev)
		}
		if tf.Rank >= 0 && tf.Rank < n {
			mt.Dropped[tf.Rank] = tf.Dropped
		}
		mt.Wire = append(mt.Wire, WireDelta{
			Rank: tf.Rank, Frames: tf.WireFrames,
			WireBytes: tf.WireBytes, PayloadBytes: tf.PayloadBytes,
		})
	}
	sort.Slice(mt.Events, func(i, j int) bool {
		if mt.Events[i].Start != mt.Events[j].Start {
			return mt.Events[i].Start < mt.Events[j].Start
		}
		return mt.Events[i].ID < mt.Events[j].ID
	})
	sort.Slice(mt.Wire, func(i, j int) bool { return mt.Wire[i].Rank < mt.Wire[j].Rank })
	return mt
}

// chromeEv is one Chrome-tracing event: an X duration slice, M metadata
// (process/thread names) or an s/f flow event (send→recv arrow).
type chromeEv struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// laneOf maps an event to its process lane (the rank) and thread lane
// within it: worker index for task events, then one NIC (send) and one
// receiver lane past the workers.
func (mt *MergedTrace) laneOf(ev obs.Event) (pid, tid int) {
	pid = int(ev.Node)
	tid = int(ev.Worker) - pid*mt.WPN
	if tid < 0 || tid > mt.WPN+1 {
		// An event recorded on an unexpected ring still renders, parked
		// on the receiver lane, rather than corrupting the layout.
		tid = mt.WPN + 1
	}
	return pid, tid
}

// maxLanes bounds the thread lanes (ranks × (workers + nic + recv)) that
// WriteChrome names, so a trace read back from bytes cannot make it emit
// millions of metadata events.
const maxLanes = 1 << 14

// commFlowKey identifies one logical transfer for send/recv pairing.
type commFlowKey struct {
	from, to, id int32
}

// WriteChrome renders the merged trace as Chrome/Perfetto trace JSON:
// one process lane per rank (named metadata), one thread lane per worker
// plus NIC and receiver lanes, X slices for task and comm events, and
// s/f flow events tying each send to its matching recv across process
// lanes. Timestamps are shifted so the earliest event lands at 0.
func (mt *MergedTrace) WriteChrome(w io.Writer) error {
	if mt.Ranks < 0 || mt.WPN < 0 || mt.WPN > maxLanes || mt.Ranks > maxLanes/(mt.WPN+2) {
		return fmt.Errorf("cluster: trace of %d ranks × %d workers has more than %d lanes", mt.Ranks, mt.WPN, maxLanes)
	}
	var events []chromeEv

	var base time.Duration
	for i, ev := range mt.Events {
		if i == 0 || ev.Start < base {
			base = ev.Start
		}
	}
	us := func(d time.Duration) float64 { return float64(d-base) / 1e3 }

	for r := 0; r < mt.Ranks; r++ {
		events = append(events, chromeEv{
			Name: "process_name", Ph: "M", PID: r,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", r)},
		})
		for tid := 0; tid <= mt.WPN+1; tid++ {
			name := fmt.Sprintf("worker %d", tid)
			switch tid {
			case mt.WPN:
				name = "nic"
			case mt.WPN + 1:
				name = "recv"
			}
			events = append(events, chromeEv{
				Name: "thread_name", Ph: "M", PID: r, TID: tid,
				Args: map[string]any{"name": name},
			})
		}
	}

	sends := map[commFlowKey]obs.Event{}
	recvs := map[commFlowKey]obs.Event{}
	for _, ev := range mt.Events {
		pid, tid := mt.laneOf(ev)
		switch ev.Op {
		case obs.OpTask:
			events = append(events, chromeEv{
				Name: fmt.Sprintf("%s(%d,%d,%d)", kernels.Kind(ev.Kind), ev.I, ev.J, ev.K),
				Cat:  "task", Ph: "X",
				TS: us(ev.Start), Dur: float64(ev.End-ev.Start) / 1e3,
				PID: pid, TID: tid,
				Args: map[string]any{"id": ev.ID, "flops": ev.Flops},
			})
		case obs.OpSend, obs.OpRecv:
			name, key, flows := "send→", commFlowKey{from: ev.Node, to: ev.Peer, id: ev.ID}, sends
			if ev.Op == obs.OpRecv {
				name, key, flows = "recv←", commFlowKey{from: ev.Peer, to: ev.Node, id: ev.ID}, recvs
			}
			flows[key] = ev
			events = append(events, chromeEv{
				Name: fmt.Sprintf("%s%d %s", name, ev.Peer, frameName(ev.ID)),
				Cat:  "comm", Ph: "X",
				TS: us(ev.Start), Dur: float64(ev.End-ev.Start) / 1e3,
				PID: pid, TID: tid,
				Args: map[string]any{
					"producer": ev.ID, "wire_bytes": ev.WireBytes,
					"payload_bytes": ev.PayloadBytes, "queue_wait_us": float64(ev.Wait) / 1e3,
				},
			})
		}
	}

	// Flow arrows: the s event sits at the send slice's end, the f event
	// (binding point "e" = enclosing slice) at the recv slice's start.
	flowID := 0
	for k, s := range sends {
		r, ok := recvs[k]
		if !ok {
			continue // dropped frame or untraced receiver: no arrow
		}
		flowID++
		sPID, sTID := mt.laneOf(s)
		rPID, rTID := mt.laneOf(r)
		events = append(events, chromeEv{
			Name: "frame", Cat: "flow", Ph: "s", ID: flowID,
			TS: us(s.End), PID: sPID, TID: sTID,
		}, chromeEv{
			Name: "frame", Cat: "flow", Ph: "f", BP: "e", ID: flowID,
			TS: us(r.Start), PID: rPID, TID: rTID,
		})
	}

	out := struct {
		TraceEvents []chromeEv `json:"traceEvents"`
		Meta        struct {
			Grid           string `json:"grid"`
			Ranks          int    `json:"ranks"`
			WPN            int    `json:"wpn"`
			DroppedEvents  int64  `json:"dropped_events"`
			OriginUnixNano int64  `json:"origin_unix_nano"`
		} `json:"metadata"`
	}{TraceEvents: events}
	out.Meta.Grid = mt.Grid
	out.Meta.Ranks = mt.Ranks
	out.Meta.WPN = mt.WPN
	out.Meta.DroppedEvents = mt.DroppedTotal()
	out.Meta.OriginUnixNano = mt.OriginUnixNano
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// frameName labels a frame by its producer, naming the reserved
// out-of-band producers.
func frameName(producer int32) string {
	switch producer {
	case dist.ProducerGather:
		return "gather"
	case dist.ProducerControl:
		return "ctrl"
	case dist.ProducerError:
		return "err"
	default:
		return fmt.Sprintf("t%d", producer)
	}
}
