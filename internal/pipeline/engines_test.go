package pipeline

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
)

// engine is one way of running a graph to completion. The behaviour table
// below holds every one of them to the same contract, whether the one
// worker loop (sched.Runtime) runs the whole graph or one rank's share.
type engine struct {
	name string
	run  func(t *testing.T, ctx context.Context, g *sched.Graph) error
}

// onRuntime runs g on a two-worker sched.Runtime next to a healthy
// neighbour job, through submit, and checks the isolation the shared pool
// promises: whatever happens to g, the neighbour completes, nothing stays
// in flight, and the pool takes another job afterwards.
func onRuntime(t *testing.T, g *sched.Graph, submit func(rt *sched.Runtime) error) error {
	t.Helper()
	rt := sched.NewRuntime(2)
	defer rt.Close()
	var ran atomic.Int32
	neighbour, err := rt.Submit(context.Background(), countingChain(10, &ran))
	if err != nil {
		t.Fatal(err)
	}
	err = submit(rt)
	if nerr := neighbour.Wait(); nerr != nil || ran.Load() != 10 {
		t.Errorf("neighbour job: err=%v, ran %d of 10 tasks", nerr, ran.Load())
	}
	if n := rt.InFlight(); n != 0 {
		t.Errorf("jobs in flight after both finished = %d, want 0", n)
	}
	after, aerr := rt.Submit(context.Background(), countingChain(3, &ran))
	if aerr != nil {
		t.Fatal(aerr)
	}
	if aerr := after.Wait(); aerr != nil || ran.Load() != 13 {
		t.Errorf("job after: err=%v, ran %d of 13 tasks", aerr, ran.Load())
	}
	return err
}

func viaExecutor(ex Executor) func(*testing.T, context.Context, *sched.Graph) error {
	return func(_ *testing.T, ctx context.Context, g *sched.Graph) error {
		_, err := RunCtx(ctx, &Plan{Graph: g}, ex)
		return err
	}
}

var engines = []engine{
	{"Sequential", viaExecutor(Sequential{})},
	{"RunParallelCtx", func(_ *testing.T, ctx context.Context, g *sched.Graph) error {
		return g.RunParallelCtx(ctx, 2)
	}},
	{"Runtime.Submit", func(t *testing.T, ctx context.Context, g *sched.Graph) error {
		return onRuntime(t, g, func(rt *sched.Runtime) error {
			h, err := rt.Submit(ctx, g)
			if err != nil {
				return err
			}
			return h.Wait()
		})
	}},
	{"Pool", viaExecutor(Pool{Workers: 2})},
	{"Shared", func(t *testing.T, ctx context.Context, g *sched.Graph) error {
		return onRuntime(t, g, func(rt *sched.Runtime) error {
			_, err := RunCtx(ctx, &Plan{Graph: g}, Shared{Runtime: rt})
			return err
		})
	}},
	{"OwnerCompute", viaExecutor(OwnerCompute{Grid: dist.Grid{R: 2, C: 1}, WorkersPerNode: 1})},
}

// countingChain builds a chain of n tasks through one handle, owners
// alternating between nodes 0 and 1 so the distributed engine has to ship
// a frame per edge. Each task adds one to ran.
func countingChain(n int, ran *atomic.Int32) *sched.Graph {
	g := sched.NewGraph()
	h := g.NewHandle(8, 0)
	for i := 0; i < n; i++ {
		g.AddTask(kernels.GEQRTKind, int32(i%2), 1, 1, func(*nla.Workspace) { ran.Add(1) }, sched.RW(h))
	}
	return g
}

// settle waits for the goroutine count to return to its level before the
// engine ran: workers, NICs, receivers and context watchers must all be
// gone once the engine has returned.
func settle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEngineBehaviour is the one table every engine answers to: success,
// a panicking kernel, a context cancelled before the start and in
// mid-run, each leaving no goroutine behind.
func TestEngineBehaviour(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name+"/success", func(t *testing.T) {
			before := runtime.NumGoroutine()
			var ran atomic.Int32
			if err := e.run(t, context.Background(), countingChain(200, &ran)); err != nil {
				t.Fatal(err)
			}
			if ran.Load() != 200 {
				t.Fatalf("ran %d of 200 tasks", ran.Load())
			}
			settle(t, before)
		})

		t.Run(e.name+"/panic", func(t *testing.T) {
			before := runtime.NumGoroutine()
			var ran atomic.Int32
			g := countingChain(4, &ran)
			h := g.NewHandle(8, 0)
			g.AddTask(kernels.TSQRTKind, 1, 1, 1, func(*nla.Workspace) { panic("singular tile") }, sched.RW(h))
			downstream := false
			g.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) { downstream = true }, sched.RW(h))
			// The graph stays executable after a failure, and the panic
			// deterministically recurs.
			for attempt := 1; attempt <= 2; attempt++ {
				err := e.run(t, context.Background(), g)
				if err == nil || !strings.Contains(err.Error(), "TSQRT") || !strings.Contains(err.Error(), "singular tile") {
					t.Fatalf("attempt %d: err = %v, want one naming the TSQRT kernel and its panic", attempt, err)
				}
			}
			if downstream {
				t.Fatal("task downstream of the panic ran")
			}
			settle(t, before)
		})

		t.Run(e.name+"/cancelled-before-start", func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var ran atomic.Int32
			err := e.run(t, ctx, countingChain(3, &ran))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if ran.Load() != 0 {
				t.Fatalf("%d tasks ran under a cancelled context", ran.Load())
			}
			settle(t, before)
		})

		t.Run(e.name+"/cancelled-mid-run", func(t *testing.T) {
			before := runtime.NumGoroutine()
			// gate → chain of tasks worth 200 µs each: 0.4 s of work if the
			// cancellation were ignored, against a contract of stopping
			// within one task's duration.
			const n = 2000
			started := make(chan struct{})
			release := make(chan struct{})
			var ran atomic.Int32
			g := sched.NewGraph()
			h := g.NewHandle(8, 0)
			g.AddTask(kernels.GEQRTKind, 0, 1, 1, func(*nla.Workspace) {
				close(started)
				<-release
			}, sched.RW(h))
			for i := 1; i < n; i++ {
				g.AddTask(kernels.GEQRTKind, int32(i%2), 1, 1, func(*nla.Workspace) {
					time.Sleep(200 * time.Microsecond)
					ran.Add(1)
				}, sched.RW(h))
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				<-started // the gate is in flight; nothing else can progress
				cancel()
				close(release)
			}()
			err := e.run(t, ctx, g)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if ran.Load() >= n-1 {
				t.Fatalf("cancelled run executed all %d tasks", n)
			}
			settle(t, before)
		})
	}
}

// deadTransport refuses every send.
type deadTransport struct{ dist.Transport }

var errWireDown = errors.New("wire down")

func (deadTransport) Send(dist.Message) error { return errWireDown }

// TestOwnerComputeTransportFailure is the distributed engine's own row of
// the table: a transport that fails fails the run with that error, on
// every rank, and leaves nothing behind.
func TestOwnerComputeTransportFailure(t *testing.T) {
	before := runtime.NumGoroutine()
	var ran atomic.Int32
	ex := OwnerCompute{
		Grid:           dist.Grid{R: 2, C: 1},
		WorkersPerNode: 1,
		Transport:      deadTransport{dist.NewChanTransport(2)},
	}
	_, err := Run(&Plan{Graph: countingChain(50, &ran)}, ex)
	if !errors.Is(err, errWireDown) {
		t.Fatalf("err = %v, want the transport's error", err)
	}
	if ran.Load() >= 50 {
		t.Fatal("every task ran over a dead transport")
	}
	settle(t, before)
}
