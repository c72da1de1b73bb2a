package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/obs"
	"github.com/tiled-la/bidiag/internal/pipeline"
)

// TestTraceFrameCodec round-trips the trace gather control frame.
func TestTraceFrameCodec(t *testing.T) {
	tf := traceFrame{
		Seq: 7, Rank: 2, WPN: 3, OriginUnixNano: 123456789,
		Dropped: 1, WireFrames: 10, WireBytes: 2048, PayloadBytes: 1500,
		Events: []obs.Event{
			{Op: obs.OpSend, ID: 4, Node: 2, Peer: 0, WireBytes: 100, PayloadBytes: 80,
				Start: time.Millisecond, End: 2 * time.Millisecond},
		},
	}
	tf.Op = opTrace
	buf, err := frameHeader(tf, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeTraceFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != tf.Seq || got.Rank != tf.Rank || got.WPN != tf.WPN ||
		got.OriginUnixNano != tf.OriginUnixNano || got.Dropped != tf.Dropped ||
		got.WireFrames != tf.WireFrames || got.WireBytes != tf.WireBytes ||
		got.PayloadBytes != tf.PayloadBytes || len(got.Events) != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	ev := got.Events[0]
	if ev.Op != obs.OpSend || ev.ID != 4 || ev.Node != 2 || ev.WireBytes != 100 {
		t.Fatalf("event round trip mismatch: %+v", ev)
	}
	if _, err := decodeTraceFrame([]byte{1, 2}); err == nil {
		t.Fatal("short trace frame accepted")
	}
	job, _ := encodeJob(jobSpec{Op: opJob, M: 1, N: 1, Plan: pipeline.GridJob{NB: 1, WPN: 1}}, nla.NewMatrix(1, 1))
	if _, err := decodeTraceFrame(job); err == nil {
		t.Fatal("job frame accepted as a trace frame")
	}
}

// sampleTraceFrame is a rank's end-of-job frame carrying one task and
// one send event.
func sampleTraceFrame() traceFrame {
	return traceFrame{
		Op: opTrace, Seq: 7, Rank: 1, WPN: 2, OriginUnixNano: 123456789,
		Dropped: 1, WireFrames: 1, WireBytes: 100, PayloadBytes: 80,
		Events: []obs.Event{
			{Kind: kernels.TSMQRKind, ID: 3, Node: 1, I: 2, J: 1, K: 0, Worker: 3, Flops: 1.5e6,
				Start: time.Millisecond, End: 3 * time.Millisecond},
			{Op: obs.OpSend, ID: 3, Node: 1, Peer: 0, Worker: 4, WireBytes: 100, PayloadBytes: 80,
				Wait: time.Microsecond, Start: 3 * time.Millisecond, End: 4 * time.Millisecond},
		},
	}
}

// withinLanes reports whether WriteChrome accepts the trace's shape.
func withinLanes(mt *MergedTrace) bool {
	return mt.Ranks >= 0 && mt.WPN >= 0 && mt.WPN <= maxLanes && mt.Ranks <= maxLanes/(mt.WPN+2)
}

// FuzzDecodeTraceFrame feeds arbitrary bytes to the head's decoder of a
// peer's end-of-job frame. A frame that decodes must merge and render
// without panicking, and its re-encoding is a fixed point: decoding and
// encoding it again gives the same bytes.
func FuzzDecodeTraceFrame(f *testing.F) {
	valid, err := frameHeader(sampleTraceFrame(), 0)
	if err != nil {
		f.Fatal(err)
	}
	reencode := func(tb testing.TB, tf traceFrame) []byte {
		buf, err := frameHeader(tf, 0)
		if err != nil {
			tb.Fatal(err)
		}
		return buf
	}
	if got, err := decodeTraceFrame(valid); err != nil || !bytes.Equal(reencode(f, got), valid) {
		f.Fatalf("a valid frame does not re-encode byte-identically (err %v)", err)
	}
	f.Add(valid)
	untraced, _ := frameHeader(traceFrame{Op: opTrace, Seq: 1, WPN: 1}, 0)
	f.Add(untraced)
	f.Add(valid[:len(valid)-3]) // truncated header
	f.Add([]byte{0xFC, 0xFF, 0xFF, 0xFF, 0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		tf, err := decodeTraceFrame(frame)
		if err != nil {
			return
		}
		mt := mergeTraces(dist.Grid{R: 1, C: 1}, []traceFrame{tf}, nil)
		if err := mt.WriteChrome(io.Discard); err != nil && withinLanes(mt) {
			t.Fatalf("decoded frame does not render: %v", err)
		}
		canon := reencode(t, tf)
		again, err := decodeTraceFrame(canon)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if b := reencode(t, again); !bytes.Equal(b, canon) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", canon, b)
		}
	})
}

// FuzzParseMergedTrace feeds arbitrary bytes to the reader of a raw
// merged trace (?format=raw, cmd/trace -cluster). A document that parses
// must render without panicking, and its re-encoding is a fixed point.
func FuzzParseMergedTrace(f *testing.F) {
	clock := []ClockInfo{{Rank: 1, OffsetNanos: -5000, RTTNanos: 20000}}
	head := sampleTraceFrame()
	head.Rank, head.Events[0].Node, head.Events[1].Node, head.Events[1].Peer = 0, 0, 0, 1
	mesh := mergeTraces(dist.Grid{R: 2, C: 1}, []traceFrame{head, sampleTraceFrame()}, clock)
	local := LocalTrace(2, sampleTraceFrame().Events[:1], 0)
	write := func(tb testing.TB, mt *MergedTrace) []byte {
		var buf bytes.Buffer
		if err := mt.WriteJSON(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, mt := range []*MergedTrace{mesh, local} {
		seed := write(f, mt)
		back, err := ParseMergedTrace(bytes.NewReader(seed))
		if err != nil || !bytes.Equal(write(f, back), seed) {
			f.Fatalf("a valid trace does not re-encode byte-identically (err %v)", err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"ranks":1000000,"wpn":1000000}`))
	f.Add([]byte(`{"ranks":1,"wpn":1,"events":[{"op":2,"node":-7,"worker":99}]}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		mt, err := ParseMergedTrace(bytes.NewReader(doc))
		if err != nil {
			return
		}
		if err := mt.WriteChrome(io.Discard); err != nil && withinLanes(mt) {
			t.Fatalf("parsed trace does not render: %v", err)
		}
		canon := write(t, mt)
		again, err := ParseMergedTrace(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("re-encoded trace does not parse: %v", err)
		}
		if b := write(t, again); !bytes.Equal(b, canon) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", canon, b)
		}
	})
}

// traceSums aggregates one rank's send events from a merged trace.
func traceSums(mt *MergedTrace, rank int32) (frames, wire, payload int64) {
	for _, ev := range mt.Events {
		if ev.Op == obs.OpSend && ev.Node == rank {
			frames++
			wire += ev.WireBytes
			payload += ev.PayloadBytes
		}
	}
	return
}

// TestClusterTraceTCP is the acceptance path: a traced 2-rank job over
// loopback TCP must stay bitwise-identical, produce a merged trace with
// one process lane per rank, clock-aligned timestamps (send starts no
// later than the matched recv ends), per-rank send-event byte sums equal
// to the transport wire deltas, and a Chrome rendering with flow arrows.
func TestClusterTraceTCP(t *testing.T) {
	grid := dist.Grid{R: 2, C: 1}
	trs := tcpPair(t)

	var peers sync.WaitGroup
	var peerErr error
	peers.Add(1)
	go func() {
		defer peers.Done()
		peerErr = ServePeer(Config{Grid: grid, Transport: trs[1], Rank: 1, StallTimeout: 30 * time.Second})
	}()
	head, err := NewHead(Config{Grid: grid, Transport: trs[0], Rank: 0, StallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	a := nla.RandomMatrix(rng, 96, 96)

	gj := pipeline.GridJob{NB: 16, Grid: grid, WPN: 2}
	sv, _, mt := runJob(t, head, a, gj, true)
	if mt == nil {
		t.Fatal("traced job returned no merged trace")
	}

	// Tracing must not perturb the numbers.
	ref := sequentialSV(t, a, gj)
	for k := range ref {
		if sv[k] != ref[k] {
			t.Fatalf("singular value %d differs with tracing on: %v != %v", k, sv[k], ref[k])
		}
	}

	if mt.Ranks != 2 || mt.WPN != 2 {
		t.Fatalf("merged trace shape: ranks %d wpn %d", mt.Ranks, mt.WPN)
	}
	if mt.DroppedTotal() != 0 {
		t.Fatalf("trace rings dropped %d events", mt.DroppedTotal())
	}
	if len(mt.Clock) != 1 || mt.Clock[0].Rank != 1 || mt.Clock[0].RTTNanos <= 0 {
		t.Fatalf("clock info: %+v", mt.Clock)
	}

	// Every rank contributes task events (its process lane is populated).
	taskRanks := map[int32]int{}
	for _, ev := range mt.Events {
		if ev.Op == obs.OpTask {
			taskRanks[ev.Node]++
		}
	}
	if len(taskRanks) != 2 {
		t.Fatalf("task events span %d ranks, want 2: %v", len(taskRanks), taskRanks)
	}

	// Per-rank send-event sums equal the transport wire deltas exactly.
	if len(mt.Wire) != 2 {
		t.Fatalf("wire deltas for %d ranks, want 2", len(mt.Wire))
	}
	for _, wd := range mt.Wire {
		frames, wire, payload := traceSums(mt, int32(wd.Rank))
		if frames != wd.Frames || wire != wd.WireBytes || payload != wd.PayloadBytes {
			t.Fatalf("rank %d send events sum to (%d frames, %d wire, %d payload), transport says (%d, %d, %d)",
				wd.Rank, frames, wire, payload, wd.Frames, wd.WireBytes, wd.PayloadBytes)
		}
		if wd.Frames == 0 {
			t.Fatalf("rank %d sent no frames on a 2-rank TCP mesh", wd.Rank)
		}
	}

	// Clock-aligned pairing: on loopback, each aligned send must start no
	// later than its matched recv ends, and every data/gather send must
	// have a matching recv (announcements can't: the peer tracer does not
	// exist yet when the announcement arrives).
	type key struct{ from, to, id int32 }
	sends := map[key]obs.Event{}
	recvs := map[key]obs.Event{}
	for _, ev := range mt.Events {
		switch ev.Op {
		case obs.OpSend:
			sends[key{ev.Node, ev.Peer, ev.ID}] = ev
		case obs.OpRecv:
			recvs[key{ev.Peer, ev.Node, ev.ID}] = ev
		}
	}
	matched := 0
	for k, s := range sends {
		r, ok := recvs[k]
		if !ok {
			if k.id == dist.ProducerControl {
				continue
			}
			t.Fatalf("send %+v has no matching recv", k)
		}
		matched++
		if s.Start > r.End {
			t.Fatalf("aligned send starts after recv ends for %+v: send %v > recv %v", k, s.Start, r.End)
		}
		if s.PayloadBytes != r.PayloadBytes {
			t.Fatalf("payload mismatch for %+v: sent %d, received %d", k, s.PayloadBytes, r.PayloadBytes)
		}
	}
	if matched == 0 {
		t.Fatal("no send/recv pairs matched")
	}
	for k := range recvs {
		if _, ok := sends[k]; !ok {
			t.Fatalf("recv %+v has no matching send", k)
		}
	}

	// Chrome rendering: ≥2 process lanes, ≥1 flow arrow, ts starts at 0.
	var buf bytes.Buffer
	if err := mt.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatal(err)
	}
	lanes := map[int]bool{}
	flows := 0
	minTS := -1.0
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			lanes[ev.PID] = true
		}
		if ev.Ph == "s" {
			flows++
		}
		if ev.Ph == "X" && (minTS < 0 || ev.TS < minTS) {
			minTS = ev.TS
		}
	}
	if len(lanes) < 2 {
		t.Fatalf("chrome trace has %d process lanes, want >= 2", len(lanes))
	}
	if flows < 1 {
		t.Fatal("chrome trace has no flow events")
	}
	if minTS != 0 {
		t.Fatalf("chrome timestamps not normalized: min X ts %v", minTS)
	}
	if flows != matched {
		t.Fatalf("chrome flow count %d != matched pairs %d", flows, matched)
	}

	// Raw JSON round trip feeds cmd/trace -cluster and ?format=raw.
	var raw bytes.Buffer
	if err := mt.WriteJSON(&raw); err != nil {
		t.Fatal(err)
	}
	back, err := ParseMergedTrace(&raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Ranks != mt.Ranks || len(back.Events) != len(mt.Events) {
		t.Fatalf("raw round trip: ranks %d events %d, want %d/%d",
			back.Ranks, len(back.Events), mt.Ranks, len(mt.Events))
	}

	// A second untraced job on the same mesh still works and carries no
	// trace, and a second traced job gathers cleanly (seq advanced).
	if _, _, mt2 := runJob(t, head, a, gj, false); mt2 != nil {
		t.Fatal("untraced job returned a trace")
	}
	if _, _, mt3 := runJob(t, head, a, gj, true); mt3 == nil || len(mt3.Events) == 0 {
		t.Fatal("second traced job returned no trace")
	}

	if err := head.Close(); err != nil {
		t.Fatal(err)
	}
	peers.Wait()
	if peerErr != nil {
		t.Fatalf("peer: %v", peerErr)
	}
}

// TestClusterTraceChan runs a traced job on the in-process transport: no
// wire counters, no clock sync, but every rank's events still merge
// (same process, zero shift beyond origin differences).
func TestClusterTraceChan(t *testing.T) {
	grid := dist.Grid{R: 2, C: 2}
	n := grid.Nodes()
	tr := dist.NewChanTransport(n)
	defer tr.Close()

	var peers sync.WaitGroup
	peerErr := make([]error, n)
	for rank := 1; rank < n; rank++ {
		peers.Add(1)
		go func(rank int) {
			defer peers.Done()
			peerErr[rank] = ServePeer(Config{Grid: grid, Transport: tr, Rank: rank, StallTimeout: 30 * time.Second})
		}(rank)
	}
	head, err := NewHead(Config{Grid: grid, Transport: tr, Rank: 0, StallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	a := nla.RandomMatrix(rng, 80, 80)
	_, _, mt := runJob(t, head, a, pipeline.GridJob{NB: 16, Grid: grid, WPN: 2}, true)
	if mt == nil || mt.Ranks != n {
		t.Fatalf("merged trace: %+v", mt)
	}
	ranksSeen := map[int32]bool{}
	for _, ev := range mt.Events {
		if ev.Op == obs.OpTask {
			ranksSeen[ev.Node] = true
		}
	}
	if len(ranksSeen) != n {
		t.Fatalf("task events from %d ranks, want %d", len(ranksSeen), n)
	}
	// ChanTransport has no wire counters: deltas must be all zero rather
	// than fabricated.
	for _, wd := range mt.Wire {
		if wd.Frames != 0 || wd.WireBytes != 0 {
			t.Fatalf("in-process transport reported wire delta %+v", wd)
		}
	}
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}
	peers.Wait()
	for rank := 1; rank < n; rank++ {
		if peerErr[rank] != nil {
			t.Fatalf("peer %d: %v", rank, peerErr[rank])
		}
	}
}
