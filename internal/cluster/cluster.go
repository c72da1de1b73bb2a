// Package cluster runs GE2BND graphs across a mesh of processes, one rank
// per grid node, over a persistent dist.Transport.
//
// The model is SPMD with a head: rank 0 (the Head) hands out one Job per
// reduction, a pipeline.Executor. Executing it ships the job — the
// resolved pipeline.GridJob plus the full input matrix — to every peer as
// an out-of-band control frame; every rank then fills the template of the
// GridJob and the input's shape (pipeline.Template, which the head's
// caller checked out too) with its own replica and runs its owned share
// through dist.ExecuteNode. The end-of-job gather leaves rank 0 holding
// the complete band result, bitwise-identical to a sequential run. What
// happens to it next — the bulge chase, the bidiagonal iteration, the
// result cache — is the caller's business: bidiag.Service runs a mesh job
// through the same admission, finish and cache path as every other job.
//
// Jobs are serialized: one at a time across the whole mesh, enforced by
// the Head's mutex and closed by a barrier — every peer reports the end
// of its executor in a control frame, and the head holds the mesh until
// all have. dist.ExecuteNode consumes every frame of job J before J
// completes on a rank, but a rank goes on reading for a moment after
// that, and must not be handed a frame of job J+1 meanwhile.
package cluster

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/obs"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/sched"
)

// Config describes one rank's attachment to the mesh.
type Config struct {
	// Grid is the process grid; the mesh spans Grid.Nodes() ranks.
	Grid dist.Grid
	// Transport is this rank's mesh endpoint (required). The cluster
	// layer never closes it; the owner does.
	Transport dist.Transport
	// Rank is this process's node id in [0, Grid.Nodes()).
	Rank int
	// StallTimeout is handed to dist.ExecuteNode (0 disables the
	// watchdog).
	StallTimeout time.Duration
}

func (c *Config) validate() error {
	if err := c.Grid.Validate(); err != nil {
		return err
	}
	if c.Rank < 0 || c.Rank >= c.Grid.Nodes() {
		return fmt.Errorf("cluster: rank %d outside %s grid", c.Rank, c.Grid)
	}
	if c.Transport == nil {
		return fmt.Errorf("cluster: config requires a transport")
	}
	return nil
}

// jobSpec is the control-frame header: everything a peer needs to build
// the same graph the head builds. The matrix data follows it raw.
type jobSpec struct {
	Op string `json:"op"` // "job" or "shutdown"
	M  int    `json:"m,omitempty"`
	N  int    `json:"n,omitempty"`
	// Plan is the head's resolved job, whole: every field shapes the graph
	// or the arithmetic, so every rank must run exactly these values.
	Plan pipeline.GridJob `json:"plan"`
	// Trace asks every rank to attach an obs.Tracer and ship its events
	// back to the head after the job; Seq is the head's job sequence
	// number, echoed in each trace frame so a stale frame left over from
	// an aborted earlier traced job cannot be mistaken for this one's.
	Trace bool  `json:"trace,omitempty"`
	Seq   int64 `json:"seq,omitempty"`
}

const (
	opJob      = "job"
	opShutdown = "shutdown"
)

// encodeJob frames a job's spec and its column-major matrix data:
// u32 JSON length | JSON | float64 little-endian data. (A shutdown is the
// header alone.)
func encodeJob(spec jobSpec, a *nla.Matrix) ([]byte, error) {
	buf, err := frameHeader(spec, 8*a.Rows*a.Cols)
	if err != nil {
		return nil, err
	}
	hl := len(buf)
	buf = buf[:cap(buf)]
	for j := 0; j < a.Cols; j++ {
		nla.PutFloat64sLE(buf[hl+8*j*a.Rows:], a.Data[j*a.LD:j*a.LD+a.Rows])
	}
	return buf, nil
}

// decodeJob is the inverse of encodeJob; every length in the frame is
// checked before it sizes anything.
func decodeJob(payload []byte) (jobSpec, *nla.Matrix, error) {
	var spec jobSpec
	rest, err := splitFrame(payload, &spec)
	if err != nil || spec.Op == opShutdown {
		return spec, nil, err
	}
	if spec.Op != opJob {
		return spec, nil, fmt.Errorf("cluster: unknown control op %q", spec.Op)
	}
	m, n := spec.M, spec.N
	if m <= 0 || n <= 0 || spec.Plan.NB <= 0 || spec.Plan.WPN <= 0 {
		return spec, nil, fmt.Errorf("cluster: invalid job %dx%d nb %d wpn %d", m, n, spec.Plan.NB, spec.Plan.WPN)
	}
	// 8·m·n must not wrap: m = 2³¹, n = 2³⁰ multiplies to 0 in an int and
	// would match an empty data segment (the rule of httpapi.shapeSize).
	if m > math.MaxInt/8/n || len(rest) != 8*m*n {
		return spec, nil, fmt.Errorf("cluster: job %dx%d carries %d data bytes", m, n, len(rest))
	}
	a := nla.NewMatrix(m, n)
	for j := 0; j < n; j++ {
		nla.Float64sFromLE(a.Data[j*a.LD:j*a.LD+m], rest[8*j*m:])
	}
	return spec, a, nil
}

// execute runs this rank's share of g over its end of the mesh.
func (c Config) execute(g *sched.Graph, dx *demux, wpn int) (*dist.Result, error) {
	return dist.ExecuteNode(g, dist.NodeOptions{
		Grid:           c.Grid,
		WorkersPerNode: wpn,
		Transport:      dx,
		Rank:           c.Rank,
		Gather:         true,
		StallTimeout:   c.StallTimeout,
	})
}

// tracerFor attaches a tracer to g. Ring indices in dist.ExecuteNode are
// global (rank·wpn+w, then NIC and receiver), so it spans them all.
func (c Config) tracerFor(g *sched.Graph, wpn int) *obs.Tracer {
	g.Tracer = obs.NewTracer(c.Rank*wpn+wpn+2, 4*len(g.Tasks)+64)
	return g.Tracer
}

// Head is rank 0's end of the mesh. Safe for concurrent use; jobs execute
// one at a time.
type Head struct {
	cfg Config
	dx  *demux

	mu  sync.Mutex
	seq int64 // last issued job sequence number (under mu)

	commBytes    atomic.Int64
	traceDropped atomic.Int64
}

// NewHead attaches a Head to rank 0 of the mesh.
func NewHead(cfg Config) (*Head, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Rank != 0 {
		return nil, fmt.Errorf("cluster: the head must be rank 0, got %d", cfg.Rank)
	}
	return &Head{cfg: cfg, dx: newDemux(cfg.Transport, 0)}, nil
}

// Grid returns the mesh's process grid.
func (h *Head) Grid() dist.Grid { return h.cfg.Grid }

// CommBytes is the modeled communication volume the head has sent over
// the mesh's lifetime (it matches sched.SimulateDistributed job by job);
// TraceDropped the trace-ring events lost across its traced jobs.
func (h *Head) CommBytes() int64    { return h.commBytes.Load() }
func (h *Head) TraceDropped() int64 { return h.traceDropped.Load() }

// Job is one reduction on the mesh, a pipeline.Executor good for a
// single Execute: the graph it is handed must be that of
// pipeline.Template(plan, a, false), because that is what the announced
// peers check out.
type Job struct {
	h     *Head
	a     *nla.Matrix
	plan  pipeline.GridJob
	trace bool

	// Trace is the clock-aligned multi-rank trace of a traced job, set by
	// a successful Execute: every rank records task and comm events and
	// ships them to the head afterwards. Tracing costs memory on every
	// rank plus one frame per peer; results stay bitwise-identical.
	Trace *MergedTrace
}

// Job prepares the reduction of a (m ≥ n) under plan, whose Grid must be
// the mesh's.
func (h *Head) Job(a *nla.Matrix, plan pipeline.GridJob, trace bool) *Job {
	return &Job{h: h, a: a, plan: plan, trace: trace}
}

// Name implements pipeline.Executor.
func (*Job) Name() string { return "mesh" }

// Execute implements pipeline.Executor: it waits for the mesh, announces
// the job and runs rank 0's share of g, returning once the gather has
// left the complete result in g's tiles. ctx is honoured until the
// announcement goes out; after that the job runs to its end on every
// rank, because an SPMD job cannot be abandoned on one of them.
func (j *Job) Execute(ctx context.Context, g *sched.Graph) (*pipeline.Report, error) {
	h, wpn := j.h, j.plan.WPN
	if j.plan.Grid != h.cfg.Grid {
		return nil, fmt.Errorf("cluster: job for grid %s on a %s mesh", j.plan.Grid, h.cfg.Grid)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	h.seq++
	spec := jobSpec{Op: opJob, M: j.a.Rows, N: j.a.Cols, Plan: j.plan, Trace: j.trace, Seq: h.seq}
	payload, err := encodeJob(spec, j.a)
	if err != nil {
		return nil, err
	}

	// The tracer exists before the announcement so the announcement sends
	// are recorded as OpSend events on the head's NIC lane (the peers
	// cannot record the matching recv — their tracers are created by the
	// announcement).
	var tr *obs.Tracer
	if j.trace {
		tr = h.cfg.tracerFor(g, wpn)
	}
	mark := wireMark(h.dx)

	for peer := 1; peer < h.cfg.Grid.Nodes(); peer++ {
		msg := dist.Message{From: 0, To: int32(peer), Producer: dist.ProducerControl, Payload: payload}
		var begin time.Duration
		if tr != nil {
			begin = tr.Now()
		}
		if err := h.dx.Send(msg); err != nil {
			return nil, fmt.Errorf("cluster: announcing job to rank %d: %w", peer, err)
		}
		if tr != nil {
			tr.Ring(wpn).Record(obs.Event{
				Op: obs.OpSend, ID: dist.ProducerControl, Node: 0, Peer: int32(peer),
				WireBytes: dist.FrameWireSize(msg), PayloadBytes: int64(len(msg.Payload)),
				Start: begin, End: tr.Now(),
			})
		}
	}

	res, err := h.cfg.execute(g, h.dx, wpn)
	if err != nil {
		return nil, err
	}
	h.commBytes.Add(int64(res.CommVolume))

	// Every peer's end-of-job frame is in before the mesh is released to
	// the next job: no rank is still reading this one's job plane.
	frames, err := h.gatherTraces([]traceFrame{traceFrameOf(spec.Seq, 0, wpn, tr, h.dx, mark)})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		var clock []ClockInfo
		for _, cs := range h.dx.ClockSyncs() {
			clock = append(clock, ClockInfo{
				Rank: int(cs.Peer), OffsetNanos: int64(cs.Offset), RTTNanos: int64(cs.RTT),
			})
		}
		j.Trace = mergeTraces(h.cfg.Grid, frames, clock)
		h.traceDropped.Add(j.Trace.DroppedTotal())
	}
	return &pipeline.Report{
		Executor: "mesh",
		Tasks:    res.TasksRun,
		Dist:     res,
		GridRows: h.cfg.Grid.R,
		GridCols: h.cfg.Grid.C,
	}, nil
}

// gatherTraces appends every peer's end-of-job frame to the head's own,
// discarding stale frames whose sequence number does not match the job
// just run.
func (h *Head) gatherTraces(frames []traceFrame) ([]traceFrame, error) {
	want := h.cfg.Grid.Nodes()
	timeout := h.cfg.StallTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for len(frames) < want {
		select {
		case msg, ok := <-h.dx.ctrl:
			if !ok {
				return nil, fmt.Errorf("cluster: mesh closed before every rank finished the job (%d/%d)", len(frames), want)
			}
			tf, err := decodeTraceFrame(msg.Payload)
			if err != nil {
				return nil, err
			}
			if tf.Seq != frames[0].Seq {
				continue // stale frame from an aborted earlier traced job
			}
			frames = append(frames, tf)
		case <-timer.C:
			return nil, fmt.Errorf("cluster: timed out waiting for every rank to finish the job (%d/%d after %v)", len(frames), want, timeout)
		}
	}
	return frames, nil
}

// Close shuts the peers down (they return from ServePeer). The transport
// stays open; its owner closes it.
func (h *Head) Close() error {
	payload, err := frameHeader(jobSpec{Op: opShutdown}, 0)
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var first error
	for peer := 1; peer < h.cfg.Grid.Nodes(); peer++ {
		if err := h.dx.Send(dist.Message{From: 0, To: int32(peer), Producer: dist.ProducerControl, Payload: payload}); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ServePeer runs one non-head rank's serve loop: wait for a job
// announcement, rebuild the graph over the shipped input, execute this
// rank's share, repeat. It returns nil after a shutdown frame or when
// the mesh closes, and an error if a job fails (the head is notified
// out-of-band by dist.ExecuteNode before that error returns).
func ServePeer(cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.Rank == 0 {
		return fmt.Errorf("cluster: rank 0 is the head; use NewHead")
	}
	dx := newDemux(cfg.Transport, int32(cfg.Rank))
	for {
		msg, ok := <-dx.ctrl
		if !ok {
			return nil // mesh closed
		}
		spec, a, err := decodeJob(msg.Payload)
		if err == nil && spec.Op == opJob && spec.Plan.Grid != cfg.Grid {
			err = fmt.Errorf("cluster: rank %d on grid %s got a job for grid %s", cfg.Rank, cfg.Grid, spec.Plan.Grid)
		}
		if err != nil {
			// A malformed announcement fails this job for the whole
			// mesh: tell the head rather than letting it stall out.
			dx.Send(dist.Message{From: int32(cfg.Rank), To: 0, Producer: dist.ProducerError, Payload: []byte(err.Error())})
			return err
		}
		if spec.Op == opShutdown {
			return nil
		}
		wpn := spec.Plan.WPN
		// The template goes back once the rank's share has succeeded; a
		// failed job returns below without it.
		p := pipeline.Template(spec.Plan, a, false)
		g := p.Graph
		var tr *obs.Tracer
		if spec.Trace {
			tr = cfg.tracerFor(g, wpn)
		}
		mark := wireMark(dx)
		if _, err := cfg.execute(g, dx, wpn); err != nil {
			return err
		}
		p.Return()
		payload, err := frameHeader(traceFrameOf(spec.Seq, cfg.Rank, wpn, tr, dx, mark), 0)
		if err != nil {
			return fmt.Errorf("cluster: rank %d encoding its end-of-job frame: %w", cfg.Rank, err)
		}
		if err := dx.Send(dist.Message{From: int32(cfg.Rank), To: 0, Producer: dist.ProducerControl, Payload: payload}); err != nil {
			return fmt.Errorf("cluster: rank %d sending its end-of-job frame: %w", cfg.Rank, err)
		}
	}
}
