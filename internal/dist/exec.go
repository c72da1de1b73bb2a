package dist

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/tiled-la/bidiag/internal/sched"
)

// Options configures the in-process distributed executor.
type Options struct {
	// Grid is the node grid; the executor runs Grid.Nodes() in-process
	// ranks. Graphs whose task owners exceed the node count are folded
	// onto it modulo Nodes, exactly as in SimulateDistributed.
	Grid Grid
	// WorkersPerNode is each node's goroutine pool size (default 1).
	WorkersPerNode int
	// Transport carries inter-node messages. Nil selects the in-process
	// ChanTransport. A non-nil transport must connect Grid.Nodes() nodes;
	// Execute closes it.
	Transport Transport
}

// Result reports a distributed execution.
type Result struct {
	Nodes, WorkersPerNode int
	TasksRun              int
	// Wall is the end-to-end execution time; Busy sums the time workers
	// spent running tasks rather than waiting for one, and Utilization is
	// Busy/(workers × Wall).
	Wall        time.Duration
	Busy        time.Duration
	Utilization float64
	// CommCount and CommVolume are the measured inter-node transfers and
	// modeled bytes, deduplicated per (producer, destination node). For a
	// given (graph, distribution) pair they equal the prediction of
	// sched.SimulateDistributed by construction.
	CommCount  int
	CommVolume float64
	// PayloadBytes is the serialized data actually moved through the
	// transport (zero for simulation-only graphs, which have no payload
	// serializers attached).
	PayloadBytes int64
	// WireFrames and WireBytes are the frames and total bytes this
	// process actually put on the wire, headers included, when the
	// transport can measure them (TCPTransport); zero otherwise. Unlike
	// CommVolume — the modeled figure shared with SimulateDistributed —
	// WireBytes includes framing overhead and ordering/gather frames.
	WireFrames int64
	WireBytes  int64
	// NodeBusy breaks Busy down by node.
	NodeBusy []time.Duration
}

// checkOwners rejects graphs with a negative task owner, which no grid
// can fold onto a rank.
func checkOwners(g *sched.Graph) error {
	for _, t := range g.Tasks {
		if t.Node < 0 {
			return fmt.Errorf("dist: task %d has negative owner %d", t.ID, t.Node)
		}
	}
	return nil
}

// Execute runs the graph under owner-compute semantics: every task runs on
// the node owning its output tile, and each read-after-write edge whose
// producer lives on another node is satisfied by an explicit message. The
// floating-point result is bitwise-identical to RunSequential: all
// conflicting accesses are ordered by graph edges, so every datum sees the
// same kernel sequence on any schedule.
func Execute(g *sched.Graph, opt Options) (*Result, error) {
	return ExecuteCtx(context.Background(), g, opt)
}

// ExecuteCtx is Execute under a context: when ctx is cancelled every rank
// stops dispatching, in-flight tasks finish, and context.Cause(ctx) is
// returned.
//
// The execution is Grid.Nodes() ranks of the ExecuteNode engine in one
// process over one transport, their results summed. The ranks share ONE
// graph and one address space, which is the only thing they do
// differently from ranks in separate processes: the data a frame carries
// is already in place when it arrives (see nodeEngine.sameAddressSpace).
func ExecuteCtx(ctx context.Context, g *sched.Graph, opt Options) (*Result, error) {
	if err := opt.Grid.Validate(); err != nil {
		return nil, err
	}
	if err := checkOwners(g); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	n := opt.Grid.Nodes()
	wpn := max(opt.WorkersPerNode, 1)
	tr := opt.Transport
	if tr == nil {
		tr = NewChanTransport(n)
	}
	// Once, before any rank starts: the ranks only read the priorities.
	g.ComputeBottomLevels(sched.WeightTime)

	// The first rank to fail cancels its peers, which no frame would
	// otherwise release; ctx's cause is then the error to report.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	start := time.Now()
	results := make([]*Result, n)
	var ranks, drains sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		e := newNodeEngine(g, NodeOptions{Grid: opt.Grid, WorkersPerNode: wpn, Transport: tr, Rank: rank})
		e.sameAddressSpace = true
		ranks.Add(1)
		drains.Add(1)
		go func(rank int) {
			defer drains.Done()
			res, err := e.run(ctx)
			if err != nil {
				cancel(err)
			}
			results[rank] = res
			ranks.Done()
			// A failed peer may still be flushing frames to this rank;
			// keep its inbox moving until Close so no send ever blocks.
			if ch := tr.Recv(int32(rank)); ch != nil {
				for range ch {
				}
			}
		}(rank)
	}
	ranks.Wait()
	closeErr := tr.Close()
	drains.Wait()
	sum := &Result{Nodes: n, WorkersPerNode: wpn, Wall: time.Since(start), NodeBusy: make([]time.Duration, n)}
	for rank, r := range results {
		if r == nil {
			return nil, context.Cause(ctx)
		}
		sum.TasksRun += r.TasksRun
		sum.Busy += r.Busy
		sum.NodeBusy[rank] = r.Busy
		sum.CommCount += r.CommCount
		sum.CommVolume += r.CommVolume
		sum.PayloadBytes += r.PayloadBytes
	}
	if closeErr != nil {
		return nil, closeErr
	}
	if sum.Wall > 0 {
		sum.Utilization = float64(sum.Busy) / (float64(n*wpn) * float64(sum.Wall))
	}
	return sum, nil
}
