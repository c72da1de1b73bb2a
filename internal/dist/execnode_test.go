package dist

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
)

// rankRun is one rank's SPMD replica: its own graph over its own copy of
// the input, plus the execution outcome.
type rankRun struct {
	out *tile.Matrix
	res *Result
	err error
}

// runRanks executes the shape case across n processes-worth of ranks in
// one test process: every rank builds an identical graph over its own
// data copy and runs ExecuteNode with the given transport.
func runRanks(t *testing.T, sc shapeCase, grid Grid, tr func(rank int) Transport, stall time.Duration) []rankRun {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	a := nla.RandomMatrix(rng, sc.m, sc.n)
	sh := core.ShapeOf(sc.m, sc.n, sc.nb)

	n := grid.Nodes()
	runs := make([]rankRun, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		g := sched.NewGraph()
		data := tile.FromDense(a, sc.nb)
		runs[rank].out = buildGE2BND(g, sh, data, grid, 2, sc.rbidiag)
		wg.Add(1)
		go func(rank int, g *sched.Graph) {
			defer wg.Done()
			runs[rank].res, runs[rank].err = ExecuteNode(g, NodeOptions{
				Grid:           grid,
				WorkersPerNode: 2,
				Transport:      tr(rank),
				Rank:           rank,
				Gather:         true,
				StallTimeout:   stall,
			})
		}(rank, g)
	}
	wg.Wait()
	return runs
}

// sequentialReference runs the same shape case on one address space.
func sequentialReference(t *testing.T, sc shapeCase, grid Grid) *tile.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	a := nla.RandomMatrix(rng, sc.m, sc.n)
	sh := core.ShapeOf(sc.m, sc.n, sc.nb)
	ref := sched.NewGraph()
	out := buildGE2BND(ref, sh, tile.FromDense(a, sc.nb), grid, 2, sc.rbidiag)
	ref.RunSequential()
	return out
}

// TestExecuteNodeMatchesSequential is the multi-process acceptance
// property: N ranks, each holding only a replica and executing only its
// owned tasks, must leave rank 0 (after the gather) holding a result
// bitwise-identical to the sequential reference — and their summed
// communication must equal both the in-process executor's accounting and
// the simulator's prediction.
func TestExecuteNodeMatchesSequential(t *testing.T) {
	grids := []Grid{{2, 2}, {2, 3}, {4, 1}}
	for _, sc := range shapeCases {
		for _, grid := range grids {
			t.Run(sc.name+"/"+grid.String(), func(t *testing.T) {
				refOut := sequentialReference(t, sc, grid)
				tr := NewChanTransport(grid.Nodes())
				defer tr.Close()
				runs := runRanks(t, sc, grid, func(int) Transport { return tr }, 30*time.Second)

				var commCount, tasks int
				var commVolume float64
				for rank, r := range runs {
					if r.err != nil {
						t.Fatalf("rank %d: %v", rank, r.err)
					}
					commCount += r.res.CommCount
					commVolume += r.res.CommVolume
					tasks += r.res.TasksRun
				}
				if !tile.Equal(refOut, runs[0].out, 0) {
					t.Fatalf("gathered rank-0 result differs bitwise from sequential")
				}

				// The simulation reference must be a real-data graph: real
				// builds register extra T-factor handles (and their
				// edges), and measured-vs-predicted only makes sense on
				// the same graph.
				rng := rand.New(rand.NewSource(42))
				a := nla.RandomMatrix(rng, sc.m, sc.n)
				sh := core.ShapeOf(sc.m, sc.n, sc.nb)
				g := sched.NewGraph()
				buildGE2BND(g, sh, tile.FromDense(a, sc.nb), grid, 2, sc.rbidiag)
				if tasks != len(g.Tasks) {
					t.Fatalf("ranks ran %d tasks in total, graph has %d", tasks, len(g.Tasks))
				}
				sim := g.SimulateDistributed(sched.DistConfig{
					Nodes:          grid.Nodes(),
					WorkersPerNode: 2,
					Latency:        1e-6,
					BytesPerTime:   5e9,
					TimeOf:         sched.WeightTime,
				})
				if commCount != sim.CommCount || commVolume != sim.CommVolume {
					t.Fatalf("summed comm (%d, %.0f) != simulated (%d, %.0f)",
						commCount, commVolume, sim.CommCount, sim.CommVolume)
				}
			})
		}
	}
}

// tcpMesh pre-binds n port-0 listeners so the full address list is known
// before any transport dials, then brings the mesh up concurrently (the
// way n independently-started processes would).
func tcpMesh(t *testing.T, n int) []*TCPTransport {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	trs := make([]*TCPTransport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range trs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trs[i], errs[i] = NewTCPTransport(context.Background(), i, addrs, &TCPOptions{Listener: lns[i]})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d transport: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	return trs
}

// TestExecuteNodeTCPWireAccounting runs the executor over a real loopback
// TCP mesh and checks that (a) the result still matches the sequential
// reference bitwise, (b) the modeled communication volume equals the
// SimulateDistributed prediction exactly, and (c) the measured wire bytes
// decompose exactly into payload plus per-frame framing overhead.
func TestExecuteNodeTCPWireAccounting(t *testing.T) {
	sc := shapeCases[0]
	grid := Grid{2, 2}
	refOut := sequentialReference(t, sc, grid)
	trs := tcpMesh(t, grid.Nodes())
	runs := runRanks(t, sc, grid, func(rank int) Transport { return trs[rank] }, 30*time.Second)

	var commCount int
	var commVolume float64
	var sentFrames, recvFrames int64
	for rank, r := range runs {
		if r.err != nil {
			t.Fatalf("rank %d: %v", rank, r.err)
		}
		commCount += r.res.CommCount
		commVolume += r.res.CommVolume

		frames, wire, payload := trs[rank].WireStats()
		sentFrames += frames
		recvFrames += trs[rank].FramesReceived()
		if r.res.WireFrames != frames || r.res.WireBytes != wire {
			t.Fatalf("rank %d Result wire figures (%d, %d) != transport (%d, %d)",
				rank, r.res.WireFrames, r.res.WireBytes, frames, wire)
		}
		// Every frame costs the 4-byte length prefix plus the fixed
		// header; whatever remains beyond the payload is the enable
		// lists, which come in whole int32s.
		overhead := wire - payload - frames*(4+tcpFrameFixed)
		if overhead < 0 || overhead%4 != 0 {
			t.Fatalf("rank %d wire bytes don't decompose: wire=%d payload=%d frames=%d", rank, wire, payload, frames)
		}
		if payload < r.res.PayloadBytes {
			t.Fatalf("rank %d transport moved %d payload bytes, accounting claims %d", rank, payload, r.res.PayloadBytes)
		}
	}
	if sentFrames != recvFrames {
		t.Fatalf("mesh lost frames: %d sent, %d received", sentFrames, recvFrames)
	}
	if !tile.Equal(refOut, runs[0].out, 0) {
		t.Fatalf("TCP-gathered rank-0 result differs bitwise from sequential")
	}

	rng := rand.New(rand.NewSource(42))
	a := nla.RandomMatrix(rng, sc.m, sc.n)
	sh := core.ShapeOf(sc.m, sc.n, sc.nb)
	g := sched.NewGraph()
	buildGE2BND(g, sh, tile.FromDense(a, sc.nb), grid, 2, sc.rbidiag)
	sim := g.SimulateDistributed(sched.DistConfig{
		Nodes:          grid.Nodes(),
		WorkersPerNode: 2,
		Latency:        1e-6,
		BytesPerTime:   5e9,
		TimeOf:         sched.WeightTime,
	})
	if commCount != sim.CommCount || commVolume != sim.CommVolume {
		t.Fatalf("TCP measured comm (%d, %.0f) != simulated (%d, %.0f)",
			commCount, commVolume, sim.CommCount, sim.CommVolume)
	}
}

// twoRankGraph builds the minimal cross-process graph: a producer on node
// 0 whose output one node-1 task reads.
func twoRankGraph() *sched.Graph {
	g := sched.NewGraph()
	h := g.NewHandle(64, 0)
	state := []byte{1, 2, 3, 4}
	h.SetPayload(func() []byte { return append([]byte(nil), state...) })
	h.SetRestore(func(buf []byte) int { copy(state, buf[:4]); return 4 })
	g.AddTask(kernels.GEQRTKind, 0, 1, 0, nil, sched.RW(h))
	g.AddTask(kernels.UNMQRKind, 1, 1, 0, nil, sched.R(h))
	return g
}

// TestExecuteNodeDroppedFrameFailsPromptly: losing a data frame must turn
// into a stall error on the starved rank within the timeout, an error on
// the head (notified out-of-band), and no leaked goroutines — never a
// silent hang.
func TestExecuteNodeDroppedFrameFailsPromptly(t *testing.T) {
	before := runtime.NumGoroutine()
	inner := NewChanTransport(2)
	tr := &FaultTransport{Inner: inner, DropNth: 1}
	grid := Grid{2, 1}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := time.Now()
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			_, errs[rank] = ExecuteNode(twoRankGraph(), NodeOptions{
				Grid:         grid,
				Transport:    tr,
				Rank:         rank,
				Gather:       true,
				StallTimeout: 200 * time.Millisecond,
			})
		}(rank)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if tr.Dropped() != 1 {
		t.Fatalf("fault injection dropped %d frames, want 1", tr.Dropped())
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "stalled") {
		t.Fatalf("starved rank did not stall out: %v", errs[1])
	}
	if errs[0] == nil {
		t.Fatal("head rank did not surface the remote failure")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("failure took %s to surface", elapsed)
	}
	tr.Close()
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestExecuteNodeIgnoresDuplicatesAndDelay: a duplicated frame must be
// dropped by the receiver-side dedup (a stale restore would corrupt the
// replica; a double enable would corrupt the counters), and added latency
// must change nothing but timing.
func TestExecuteNodeIgnoresDuplicatesAndDelay(t *testing.T) {
	sc := shapeCases[0]
	grid := Grid{2, 1}
	refOut := sequentialReference(t, sc, grid)
	inner := NewChanTransport(grid.Nodes())
	defer inner.Close()
	tr := &FaultTransport{Inner: inner, DupNth: 1, Delay: time.Millisecond}
	runs := runRanks(t, sc, grid, func(int) Transport { return tr }, 30*time.Second)
	for rank, r := range runs {
		if r.err != nil {
			t.Fatalf("rank %d: %v", rank, r.err)
		}
	}
	if tr.Duplicated() != 1 {
		t.Fatalf("fault injection duplicated %d frames, want 1", tr.Duplicated())
	}
	if !tile.Equal(refOut, runs[0].out, 0) {
		t.Fatalf("duplicate frame corrupted the result")
	}
}

// TestTCPFrameRoundTrip: the codec must reproduce a frame exactly, and
// frameWireSize must agree with what appendFrame emits.
func TestTCPFrameRoundTrip(t *testing.T) {
	msgs := []Message{
		{From: 1, To: 2, Producer: 77, Bytes: 4096, Payload: []byte{5, 6, 7}, Enable: []int32{9, 10, 11}},
		{From: 0, To: 3, Producer: ProducerGather, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
		{From: 2, To: 0, Producer: 5, Enable: []int32{1}},
		{From: 0, To: 1, Producer: 0},
	}
	var wire []byte
	for _, m := range msgs {
		one := appendFrame(nil, m)
		if int64(len(one)) != frameWireSize(m) {
			t.Fatalf("frameWireSize=%d, encoded %d bytes", frameWireSize(m), len(one))
		}
		wire = append(wire, one...)
	}
	r := bytes.NewReader(wire)
	for i, want := range msgs {
		got, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.From != want.From || got.To != want.To || got.Producer != want.Producer || got.Bytes != want.Bytes {
			t.Fatalf("frame %d header mismatch: %+v != %+v", i, got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d payload mismatch", i)
		}
		if len(got.Enable) != len(want.Enable) {
			t.Fatalf("frame %d enable mismatch: %v != %v", i, got.Enable, want.Enable)
		}
		for j := range want.Enable {
			if got.Enable[j] != want.Enable[j] {
				t.Fatalf("frame %d enable mismatch: %v != %v", i, got.Enable, want.Enable)
			}
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes", r.Len())
	}

	// A corrupted length prefix must error out, not allocate.
	if _, err := readFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// forgeGraph is a three-rank graph with no payloads: task 0 on rank 0
// feeds task 1 on rank 1, task 2 feeds task 3 on rank 1, and rank 2 owns
// task 4.
func forgeGraph() *sched.Graph {
	g := sched.NewGraph()
	a, b, c := g.NewHandle(8, 0), g.NewHandle(8, 0), g.NewHandle(8, 0)
	g.AddTask(kernels.GEQRTKind, 0, 1, 0, nil, sched.RW(a))
	g.AddTask(kernels.UNMQRKind, 1, 1, 0, nil, sched.R(a))
	g.AddTask(kernels.GEQRTKind, 1, 1, 0, nil, sched.RW(b))
	g.AddTask(kernels.UNMQRKind, 1, 1, 0, nil, sched.RW(b))
	g.AddTask(kernels.GEQRTKind, 2, 1, 0, nil, sched.RW(c))
	return g
}

// TestExecuteNodeRejectsForgedFrames: a frame the graph cannot have
// produced — from a rank that does not own its producer, enabling a task
// that is not among the producer's successors on the receiving rank, or
// a gather from a rank with nothing to gather — fails the receiving rank
// with an error naming the frame, instead of releasing a task early or
// ending the gather short.
func TestExecuteNodeRejectsForgedFrames(t *testing.T) {
	cases := []struct {
		name string
		msg  Message
		want string
	}{
		{"spoofed From", Message{From: 2, To: 1, Producer: 0, Enable: []int32{1}}, "frame for task 0 from rank 2"},
		{"foreign Enable id", Message{From: 0, To: 1, Producer: 0, Enable: []int32{1, 3}}, "frame for task 0 from rank 0 enables [1 3]"},
		{"gather from rank 0", Message{From: 0, To: 0, Producer: ProducerGather}, "gather frame from rank 0"},
		{"gather from rank nodes", Message{From: 3, To: 0, Producer: ProducerGather}, "gather frame from rank 3"},
	}
	grid := Grid{3, 1}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := NewChanTransport(grid.Nodes())
			defer tr.Close()
			if err := tr.Send(c.msg); err != nil {
				t.Fatal(err)
			}
			errs := make([]error, grid.Nodes())
			var wg sync.WaitGroup
			for rank := range errs {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					_, errs[rank] = ExecuteNode(forgeGraph(), NodeOptions{
						Grid:         grid,
						Transport:    tr,
						Rank:         rank,
						Gather:       true,
						StallTimeout: 500 * time.Millisecond,
					})
				}(rank)
			}
			wg.Wait()
			if err := errs[c.msg.To]; err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("rank %d took the forged frame: err = %v, want one containing %q", c.msg.To, err, c.want)
			}
		})
	}
}

// TestExecuteLeavesNoGoroutines: once ExecuteNode or ExecuteCtx returns —
// on success, on a kernel panic, or on cancellation — the goroutine count
// settles back to its baseline: every rank's runtime, NIC, receiver and
// watchdog is gone. (ExecuteNode has no ctx; its cancellation path is the
// stall of TestExecuteNodeDroppedFrameFailsPromptly.)
func TestExecuteLeavesNoGoroutines(t *testing.T) {
	grid := Grid{2, 1}
	graph := func(panicky bool, gate chan struct{}) *sched.Graph {
		g := sched.NewGraph()
		h := g.NewHandle(8, 0)
		g.AddTask(kernels.GEQRTKind, 0, 1, 0, func(*nla.Workspace) {
			if gate != nil {
				<-gate
			}
		}, sched.RW(h))
		g.AddTask(kernels.UNMQRKind, 1, 1, 0, func(*nla.Workspace) {
			if panicky {
				panic("bad tile")
			}
		}, sched.R(h))
		g.AddTask(kernels.GEQRTKind, 0, 1, 0, nil, sched.RW(h))
		return g
	}
	node := func(panicky bool) error {
		tr := NewChanTransport(grid.Nodes())
		defer tr.Close()
		errs := make([]error, grid.Nodes())
		var wg sync.WaitGroup
		for rank := range errs {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				_, errs[rank] = ExecuteNode(graph(panicky, nil), NodeOptions{
					Grid: grid, WorkersPerNode: 2, Transport: tr, Rank: rank, Gather: true, StallTimeout: 5 * time.Second,
				})
			}(rank)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	cases := []struct {
		name    string
		run     func() error
		wantErr string
	}{
		{"ExecuteNode/success", func() error { return node(false) }, ""},
		{"ExecuteNode/panic", func() error { return node(true) }, "bad tile"},
		{"ExecuteCtx/success", func() error {
			_, err := ExecuteCtx(context.Background(), graph(false, nil), Options{Grid: grid, WorkersPerNode: 2})
			return err
		}, ""},
		{"ExecuteCtx/panic", func() error {
			_, err := ExecuteCtx(context.Background(), graph(true, nil), Options{Grid: grid, WorkersPerNode: 2})
			return err
		}, "bad tile"},
		{"ExecuteCtx/cancel", func() error {
			gate := make(chan struct{})
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
				close(gate)
			}()
			_, err := ExecuteCtx(ctx, graph(false, gate), Options{Grid: grid, WorkersPerNode: 2})
			return err
		}, context.Canceled.Error()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			err := c.run()
			if c.wantErr == "" && err != nil || c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
				t.Fatalf("err = %v, want %q", err, c.wantErr)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
