package dist

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tiled-la/bidiag/internal/obs"
	"github.com/tiled-la/bidiag/internal/sched"
)

// Reserved Producer values of out-of-band frames. Real task IDs are never
// negative, so these multiplex cleanly over the same Transport.
const (
	// ProducerGather marks a frame carrying the sender rank's final
	// region snapshots — the end-of-job gather ExecuteNode ships to rank
	// 0 when NodeOptions.Gather is set.
	ProducerGather int32 = -2
	// ProducerControl marks an out-of-band control frame. ExecuteNode
	// never sends or expects one; the cluster layer uses them between
	// jobs to broadcast work to the peer ranks.
	ProducerControl int32 = -3
	// ProducerError carries a remote rank's failure: the payload is the
	// error text. A rank whose execution fails ships one to rank 0 so
	// the head fails the job promptly instead of waiting out a stall.
	ProducerError int32 = -4
)

// NodeOptions configures one rank of a multi-process owner-compute
// execution (ExecuteNode).
type NodeOptions struct {
	// Grid is the process grid; the job spans Grid.Nodes() ranks, one
	// process each, every one executing ExecuteNode over an identical
	// graph built from an identical input (SPMD).
	Grid Grid
	// WorkersPerNode is this rank's worker pool size (default 1).
	WorkersPerNode int
	// Transport connects this rank to its peers (required). ExecuteNode
	// never closes it, so a persistent mesh can carry many jobs
	// back-to-back; standalone callers close it themselves.
	Transport Transport
	// Rank is this process's node id in [0, Grid.Nodes()).
	Rank int
	// Gather, when set, ships every datum's final region bytes to rank 0
	// at the end of the job (each rank sends the regions whose last
	// writer it ran), so rank 0 finishes holding the complete result —
	// bitwise-identical to a sequential run — and can serve it.
	Gather bool
	// StallTimeout fails the execution when this rank makes no local
	// progress (no task completion, no frame arrival) for the duration —
	// the detector that turns a lost peer or a dropped frame into a
	// prompt error instead of a hang. It must comfortably exceed the
	// longest stretch this rank legitimately spends waiting on remote
	// computation. 0 disables.
	StallTimeout time.Duration
}

// nodeEngine is one rank of an owner-compute execution (see the package
// doc): its share of the graph is an owned job on a sched.Runtime of its
// own, and a frame from a peer releases the frame's producer in the job.
// Ordering frames are excluded from the communication accounting, which
// therefore matches sched.SimulateDistributed exactly.
type nodeEngine struct {
	g     *sched.Graph
	tr    Transport
	rank  int32
	nodes int32
	wpn   int
	opt   NodeOptions

	// sameAddressSpace is set when every rank of the job runs in this
	// process over this one graph (Execute): a frame's data is then already
	// in place when the frame arrives, and restoring it would rewrite bytes
	// the producer rank's own readers may be reading. The frame is still
	// shipped, accounted and used for its enables. This is the only branch
	// on where the peers live.
	sameAddressSpace bool

	// ws is the transport's optional wire accounting, asserted once at
	// setup. links is its optional per-link telemetry. nicRing and
	// recvRing are this rank's comm-event rings and origin their time
	// base, set by ExecuteNode when the graph carries a tracer. trackComm
	// is the single flag the frame paths check: false keeps them
	// byte-for-byte on the pre-telemetry fast path.
	ws        WireStatser
	links     *LinkStats
	nicRing   *obs.Ring
	recvRing  *obs.Ring
	origin    time.Time
	trackComm bool

	// ctx ends with the job's first fatal error — a kernel panic, a
	// transport or frame error, a stall, a failed peer, or the caller's
	// cancellation — which fail records as its cause. job is this rank's
	// share on the runtime; it stops when ctx ends.
	ctx  context.Context
	fail context.CancelCauseFunc
	job  *sched.JobHandle

	// The outbox is drained by a single sender goroutine, the rank's NIC.
	// outEnq parallels it with enqueue timestamps when trackComm is set.
	outMu     sync.Mutex
	outCond   *sync.Cond
	outbox    []Message
	outEnq    []time.Time
	outClosed bool

	// commMu guards the communication figures of res.
	commMu sync.Mutex
	res    Result

	// drained is closed once the NIC has drained. The receiver outlives a
	// failure: it exits on drained, and discards frames in between so a
	// peer's send never blocks on this rank's inbox.
	drained chan struct{}
	// seen is the receiver's dedup set of data/ordering frames, by
	// producer.
	seen map[int32]bool
	// gatherOK is closed once every peer's gather frame arrived (rank 0
	// only). The payloads are buffered in gathers, by sender rank, and
	// restored by the main goroutine after the local workers have quiesced
	// — restoring from the receiver could race a still-running local
	// reader of the same region.
	gatherOK chan struct{}
	gathers  map[int32][]byte
	// progress counts completions and frame arrivals; pending is set
	// while the job, or rank 0's gather, is outstanding. The watchdog
	// reads both.
	progress atomic.Int64
	pending  atomic.Bool
}

// ExecuteNode runs this process's share of an owner-compute execution:
// the graph must be built identically on every rank (same input, same
// shape, same configuration — SPMD), and each rank executes exactly the
// tasks it owns. Cross-process read-after-write edges are satisfied by
// payload frames whose bytes are restored into the local replica of the
// producer's output regions before any local consumer runs; cross-process
// ordering edges travel as payload-free enable frames. The result on the
// owning rank of every datum is bitwise-identical to RunSequential on one
// address space.
//
// The returned Result carries this rank's share of the communication:
// summing CommCount/CommVolume over all ranks reproduces the
// SimulateDistributed prediction.
func ExecuteNode(g *sched.Graph, opt NodeOptions) (*Result, error) {
	if err := opt.Grid.Validate(); err != nil {
		return nil, err
	}
	if opt.Rank < 0 || opt.Rank >= opt.Grid.Nodes() {
		return nil, fmt.Errorf("dist: rank %d outside %s grid", opt.Rank, opt.Grid)
	}
	if opt.Transport == nil {
		return nil, fmt.Errorf("dist: ExecuteNode requires a transport")
	}
	if err := checkOwners(g); err != nil {
		return nil, err
	}
	g.ComputeBottomLevels(sched.WeightTime)
	e := newNodeEngine(g, opt)
	if tr := g.Tracer; tr != nil {
		// This rank's comm rings sit just past its worker rings. Ranks
		// sharing one tracer (Execute) get none: rank r's would alias rank
		// r+1's worker rings.
		e.origin = tr.Origin()
		e.nicRing = tr.Ring(opt.Rank*e.wpn + e.wpn)
		e.recvRing = tr.Ring(opt.Rank*e.wpn + e.wpn + 1)
		e.trackComm = true
	}
	return e.run(context.Background())
}

// newNodeEngine sets up one rank over a validated graph whose bottom
// levels are already computed.
func newNodeEngine(g *sched.Graph, opt NodeOptions) *nodeEngine {
	e := &nodeEngine{
		g:       g,
		tr:      opt.Transport,
		rank:    int32(opt.Rank),
		nodes:   int32(opt.Grid.Nodes()),
		wpn:     max(opt.WorkersPerNode, 1),
		opt:     opt,
		drained: make(chan struct{}),
		seen:    map[int32]bool{},
	}
	e.outCond = sync.NewCond(&e.outMu)
	if ws, ok := e.tr.(WireStatser); ok {
		e.ws = ws
	}
	if ls, ok := e.tr.(LinkStatser); ok {
		e.links = ls.Links()
		e.trackComm = e.links != nil
	}
	return e
}

// run executes this rank's tasks to completion, failure, or the
// cancellation of ctx, and returns the rank's result.
func (e *nodeEngine) run(ctx context.Context) (*Result, error) {
	n, opt := int(e.nodes), e.opt
	e.res = Result{Nodes: n, WorkersPerNode: e.wpn, NodeBusy: make([]time.Duration, n)}
	if opt.Gather && e.rank == 0 {
		e.gatherOK = make(chan struct{})
		e.gathers = map[int32][]byte{}
		if n == 1 {
			close(e.gatherOK)
		}
	}
	var wireBase int64
	if e.ws != nil {
		_, wireBase, _ = e.ws.WireStats()
	}
	e.ctx, e.fail = context.WithCancelCause(ctx)
	defer e.fail(nil)

	// Submit before any goroutine starts: a persistent mesh can already
	// hold buffered frames for this job (staggered back-to-back cluster
	// jobs), and the receiver releases them into the job. Worker w of
	// this rank records on the global lane rank*wpn+w, so a traced run
	// lays out one lane per physical worker across all ranks.
	start := time.Now()
	rt := sched.NewRuntime(e.wpn)
	job, err := rt.SubmitOwned(e.ctx, e.g, int(e.rank), n, int(e.rank)*e.wpn, e.complete)
	if err != nil {
		rt.Close()
		return nil, err
	}
	e.job = job
	e.pending.Store(true)
	var receivers, senders sync.WaitGroup
	receivers.Add(1)
	go e.receiver(&receivers)
	senders.Add(1)
	go e.sender(&senders)
	if opt.StallTimeout > 0 {
		go e.watchdog(opt.StallTimeout)
	}
	if err := job.Wait(); err != nil {
		// A kernel panic strands every consumer of its output; the
		// other causes have ended ctx already, and the first one stands.
		e.fail(fmt.Errorf("dist: rank %d: %w", e.rank, err))
	}
	rt.Close()
	busy := max(0, time.Duration(e.wpn)*time.Since(start)-rt.Stats().Idle)

	// Local tasks are done (or the run failed). Ship the end-of-job
	// frames while the NIC is still open: the gather to rank 0 on
	// success, an error notice on failure.
	if err := context.Cause(e.ctx); err == nil {
		if opt.Gather && e.rank != 0 {
			e.ship(Message{From: e.rank, To: 0, Producer: ProducerGather, Payload: e.gatherPayload()})
		}
	} else if e.rank != 0 {
		e.ship(Message{From: e.rank, To: 0, Producer: ProducerError, Payload: []byte(err.Error())})
	}
	// Rank 0 stays receiving until every peer's gather arrived, then
	// installs the buffered payloads — the workers are gone now, so no
	// local task can race the restores.
	if e.gatherOK != nil {
		select {
		case <-e.gatherOK:
			for from, payload := range e.gathers {
				e.restoreGather(from, payload)
			}
		case <-e.ctx.Done():
		}
	}
	e.pending.Store(false)

	e.outMu.Lock()
	e.outClosed = true
	e.outCond.Broadcast()
	e.outMu.Unlock()
	senders.Wait()
	close(e.drained) // receiver exits; transport stays open for the next job
	receivers.Wait()
	if err := context.Cause(e.ctx); err != nil {
		return nil, err
	}

	e.res.Wall = time.Since(start)
	e.res.TasksRun = job.Tasks()
	e.res.NodeBusy[e.rank] = busy
	e.res.Busy = busy
	if e.res.Wall > 0 {
		e.res.Utilization = float64(e.res.Busy) / (float64(e.wpn) * float64(e.res.Wall))
	}
	if e.ws != nil {
		frames, wire, _ := e.ws.WireStats()
		e.res.WireFrames = frames
		e.res.WireBytes = wire - wireBase
	}
	return &e.res, nil
}

func (e *nodeEngine) nodeOf(t *sched.Task) int32 { return t.Node % e.nodes }

// outMsg accumulates the frame for one destination rank during completion
// processing.
type outMsg struct {
	dest    int32
	bytes   int32 // first data edge's volume, the figure the simulator charges
	handles []*sched.Handle
	enable  []int32
}

// complete is the job's done hook for a finished local task: ship one
// frame per remote destination node combining the payload of its data
// edges (snapshotted before any successor may run — the runtime releases
// the local ones after this returns) with every enable the destination is
// owed, data and ordering alike.
func (e *nodeEngine) complete(t *sched.Task) {
	e.progress.Add(1)
	succs := t.Succs()

	var outs []*outMsg
	var byDest map[int32]*outMsg
	for i, s := range succs {
		sn := e.nodeOf(s)
		if sn == e.rank {
			continue
		}
		if byDest == nil {
			byDest = map[int32]*outMsg{}
		}
		m := byDest[sn]
		if m == nil {
			m = &outMsg{dest: sn}
			byDest[sn] = m
			outs = append(outs, m)
		}
		if bytes := t.EdgeBytes(i); bytes > 0 {
			if m.bytes == 0 {
				// First data edge to this destination: the volume figure
				// the simulator charges for the deduplicated transfer.
				m.bytes = bytes
			}
			for _, h := range t.EdgeHandles(i) {
				if !slices.Contains(m.handles, h) {
					m.handles = append(m.handles, h)
				}
			}
		}
		m.enable = append(m.enable, s.ID)
	}

	snaps := map[*sched.Handle][]byte{}
	for _, m := range outs {
		var payload []byte
		for _, h := range m.handles {
			snap, ok := snaps[h]
			if !ok {
				snap = h.Snapshot()
				snaps[h] = snap
			}
			payload = append(payload, snap...)
		}
		e.ship(Message{
			From:     e.rank,
			To:       m.dest,
			Producer: t.ID,
			Bytes:    m.bytes,
			Payload:  payload,
			Enable:   m.enable,
		})
	}
}

// ship accounts a data transfer (ordering and out-of-band frames carry
// Bytes 0 and are free, as in the simulator) and enqueues the frame on
// this rank's NIC. complete ships one frame per (producer, destination),
// the simulator's deduplicated transfer.
func (e *nodeEngine) ship(msg Message) {
	if msg.Bytes > 0 {
		e.commMu.Lock()
		e.res.CommCount++
		e.res.CommVolume += float64(msg.Bytes)
		e.res.PayloadBytes += int64(len(msg.Payload))
		e.commMu.Unlock()
	}
	e.outMu.Lock()
	e.outbox = append(e.outbox, msg)
	if e.trackComm {
		e.outEnq = append(e.outEnq, time.Now())
	}
	e.outCond.Signal()
	e.outMu.Unlock()
}

// sender is this rank's NIC: frames drain in FIFO order through the
// transport, one at a time, serializing the rank's sends exactly as the
// simulator's nicFree clock does.
func (e *nodeEngine) sender(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		e.outMu.Lock()
		for len(e.outbox) == 0 && !e.outClosed {
			e.outCond.Wait()
		}
		if len(e.outbox) == 0 {
			e.outMu.Unlock()
			return
		}
		msg := e.outbox[0]
		e.outbox = e.outbox[1:]
		var enq time.Time
		if e.trackComm {
			enq = e.outEnq[0]
			e.outEnq = e.outEnq[1:]
		}
		e.outMu.Unlock()
		if err := e.send(msg, enq); err != nil {
			e.fail(fmt.Errorf("dist: rank %d transport send: %w", e.rank, err))
			return
		}
	}
}

// send pushes one frame through the transport, recording the per-link
// queue wait and — when the graph carries a tracer — an OpSend comm
// event. With telemetry off (trackComm false) it is exactly one nil
// check around the transport call, matching RunTask's discipline; the
// tracked path adds no allocations (lock-free histogram observes and a
// preallocated ring slot). Self-sends never touch a wire and are
// excluded, so event byte sums remain comparable to WireStats.
func (e *nodeEngine) send(msg Message, enq time.Time) error {
	if !e.trackComm {
		return e.tr.Send(msg)
	}
	begin := time.Now()
	err := e.tr.Send(msg)
	if msg.To == e.rank {
		return err
	}
	if e.links != nil {
		e.links.RecordQueueWait(msg.To, begin.Sub(enq))
	}
	if e.nicRing != nil {
		e.nicRing.Record(obs.Event{
			Op:           obs.OpSend,
			ID:           msg.Producer,
			Node:         e.rank,
			Peer:         msg.To,
			WireBytes:    frameWireSize(msg),
			PayloadBytes: int64(len(msg.Payload)),
			Wait:         begin.Sub(enq),
			Start:        begin.Sub(e.origin),
			End:          time.Since(e.origin),
		})
	}
	return err
}

// recordRecv records an OpRecv comm event for a frame this rank acted
// on. The receiver calls it only for frames that passed its dedup, so a
// duplicated or dropped wire frame (FaultTransport, a retrying
// transport) yields exactly the events of the logical transfer that
// actually took effect. arrive is the dequeue instant, stamped before
// the frame was processed; self-sends are excluded.
func (e *nodeEngine) recordRecv(msg Message, arrive time.Duration) {
	if e.recvRing == nil || msg.From == e.rank {
		return
	}
	e.recvRing.Record(obs.Event{
		Op:           obs.OpRecv,
		ID:           msg.Producer,
		Node:         e.rank,
		Peer:         msg.From,
		WireBytes:    frameWireSize(msg),
		PayloadBytes: int64(len(msg.Payload)),
		Start:        arrive,
		End:          time.Since(e.origin),
	})
}

// receiver consumes this rank's frame stream until the NIC has drained
// (e.drained) rather than until transport close, so a persistent mesh
// survives the job. After a failure it keeps consuming and discards:
// a peer's NIC must never block on this rank's inbox.
func (e *nodeEngine) receiver(wg *sync.WaitGroup) {
	defer wg.Done()
	ch := e.tr.Recv(e.rank)
	if ch == nil {
		e.fail(fmt.Errorf("dist: transport has no receive stream for rank %d", e.rank))
		return
	}
	for {
		select {
		case msg, ok := <-ch:
			if !ok {
				return
			}
			if e.ctx.Err() != nil {
				continue
			}
			if err := e.receive(msg); err != nil {
				e.fail(err)
			}
		case <-e.drained:
			return
		}
	}
}

// receive acts on one arriving frame: restore payloads into the local
// replicas, then release the tasks the frame enables. Duplicate frames (a
// faulty or retrying transport) are ignored — restoring stale bytes after
// later local writes would corrupt data, and double enables would corrupt
// the dependence counters. A frame the graph cannot have produced fails
// the job: one whose sender does not own its producer, whose enable list
// is not the producer's successors on this rank, or a gather from a rank
// that has none to send.
func (e *nodeEngine) receive(msg Message) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dist: rank %d receive: %v", e.rank, r)
		}
	}()
	var arrive time.Duration
	if e.recvRing != nil {
		arrive = time.Since(e.origin)
	}
	e.progress.Add(1)
	switch {
	case msg.Producer == ProducerError:
		e.recordRecv(msg, arrive)
		return fmt.Errorf("dist: rank %d failed: %s", msg.From, msg.Payload)
	case msg.Producer == ProducerGather:
		if msg.From < 1 || msg.From >= e.nodes {
			return fmt.Errorf("dist: rank %d received a gather frame from rank %d, outside [1, %d)", e.rank, msg.From, e.nodes)
		}
		if _, dup := e.gathers[msg.From]; dup || e.gathers == nil {
			return nil
		}
		e.gathers[msg.From] = msg.Payload
		e.recordRecv(msg, arrive)
		if len(e.gathers) == int(e.nodes)-1 {
			close(e.gatherOK)
		}
	case msg.Producer == ProducerControl:
		return fmt.Errorf("dist: rank %d received a control frame mid-job", e.rank)
	case msg.Producer < 0 || int(msg.Producer) >= len(e.g.Tasks):
		return fmt.Errorf("dist: rank %d received frame from unknown producer %d", e.rank, msg.Producer)
	default:
		t := e.g.Tasks[msg.Producer]
		if owner := e.nodeOf(t); owner != msg.From || owner == e.rank {
			return fmt.Errorf("dist: rank %d: frame for task %d from rank %d, but rank %d owns the task", e.rank, msg.Producer, msg.From, owner)
		}
		if !e.enablesOwnedSuccs(t, msg.Enable) {
			return fmt.Errorf("dist: rank %d: frame for task %d from rank %d enables %v, not the task's successors on this rank", e.rank, msg.Producer, msg.From, msg.Enable)
		}
		if e.seen[msg.Producer] {
			return nil
		}
		e.seen[msg.Producer] = true
		if err := e.deliver(t, msg.Payload); err != nil {
			return err
		}
		e.recordRecv(msg, arrive)
	}
	return nil
}

// enablesOwnedSuccs reports whether enable lists exactly t's successors
// on this rank, in successor order — the list complete ships.
func (e *nodeEngine) enablesOwnedSuccs(t *sched.Task, enable []int32) bool {
	i := 0
	for _, s := range t.Succs() {
		if e.nodeOf(s) != e.rank {
			continue
		}
		if i == len(enable) || enable[i] != s.ID {
			return false
		}
		i++
	}
	return i == len(enable)
}

// deliver restores a data frame's payload and releases the producer's
// successors in this rank's job. The handle enumeration replays the
// sender's: walk the producer's edges into this rank, collecting each
// data edge's handles first-seen order — both sides derive it from the
// same graph, so no metadata travels on the wire.
func (e *nodeEngine) deliver(t *sched.Task, payload []byte) error {
	if !e.sameAddressSpace {
		rest := payload
		var restored []*sched.Handle
		for i, s := range t.Succs() {
			if e.nodeOf(s) != e.rank || t.EdgeBytes(i) == 0 {
				continue
			}
			for _, h := range t.EdgeHandles(i) {
				if !slices.Contains(restored, h) {
					restored = append(restored, h)
					rest = rest[h.Restore(rest):]
				}
			}
		}
		if len(rest) != 0 {
			return fmt.Errorf("dist: rank %d: frame from task %d has %d unconsumed payload bytes", e.rank, t.ID, len(rest))
		}
	}
	e.job.Release(t)
	return nil
}

// gatherPayload concatenates the final snapshots of every datum whose
// last writer ran on this rank, in handle registration order — the
// deterministic enumeration rank 0 replays in restoreGather.
func (e *nodeEngine) gatherPayload() []byte {
	var payload []byte
	for _, h := range e.g.Handles() {
		if w := h.LastWriter(); w != nil && e.nodeOf(w) == e.rank {
			payload = append(payload, h.Snapshot()...)
		}
	}
	return payload
}

// restoreGather installs a peer's final regions into rank 0's replica.
func (e *nodeEngine) restoreGather(from int32, payload []byte) {
	rest := payload
	for _, h := range e.g.Handles() {
		if w := h.LastWriter(); w != nil && e.nodeOf(w) == from {
			rest = rest[h.Restore(rest):]
		}
	}
	if len(rest) != 0 {
		e.fail(fmt.Errorf("dist: rank %d: gather from rank %d has %d unconsumed bytes", e.rank, from, len(rest)))
	}
}

// watchdog fails the execution when neither a completion nor a frame
// arrival happened for a full timeout window while the job, or rank 0's
// gather, was pending.
func (e *nodeEngine) watchdog(timeout time.Duration) {
	tick := time.NewTicker(timeout)
	defer tick.Stop()
	last := e.progress.Load()
	for {
		select {
		case <-e.ctx.Done():
			return
		case <-e.drained:
			return
		case <-tick.C:
			cur := e.progress.Load()
			if cur == last && e.pending.Load() {
				e.fail(fmt.Errorf("dist: rank %d stalled: no progress for %s (lost peer or dropped frame?)", e.rank, timeout))
				return
			}
			last = cur
		}
	}
}
