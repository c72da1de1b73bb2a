package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/bdsqr"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/obs"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
	"github.com/tiled-la/bidiag/internal/trees"
)

func TestSquareGrid(t *testing.T) {
	cases := map[int]Grid{
		1:  {1, 1},
		4:  {2, 2},
		6:  {2, 3},
		9:  {3, 3},
		12: {3, 4},
		7:  {1, 7},
	}
	for nodes, want := range cases {
		if got := SquareGrid(nodes); got != want {
			t.Errorf("SquareGrid(%d) = %v, want %v", nodes, got, want)
		}
	}
	if got := TallSkinnyGrid(5); got != (Grid{5, 1}) {
		t.Errorf("TallSkinnyGrid(5) = %v", got)
	}
}

func TestGridOwnerBlockCyclic(t *testing.T) {
	g := Grid{R: 2, C: 3}
	seen := map[int32]int{}
	for i := 0; i < 8; i++ {
		for j := 0; j < 9; j++ {
			o := g.Owner(i, j)
			if o < 0 || int(o) >= g.Nodes() {
				t.Fatalf("owner(%d,%d) = %d out of range", i, j, o)
			}
			if o != g.Owner(i+g.R, j) || o != g.Owner(i, j+g.C) {
				t.Fatalf("distribution not cyclic at (%d,%d)", i, j)
			}
			seen[o]++
		}
	}
	if len(seen) != g.Nodes() {
		t.Fatalf("only %d of %d nodes own tiles", len(seen), g.Nodes())
	}
}

// buildGE2BND emits a BIDIAG or R-BIDIAG graph with hierarchical trees
// over the grid; data may be nil for simulation-only graphs. It returns
// the tile matrix holding the band result (nil in simulation mode).
func buildGE2BND(g *sched.Graph, sh core.Shape, data *tile.Matrix, grid Grid, cores int, rbidiag bool) *tile.Matrix {
	tc := AutoDefaults(sh, grid, cores)
	cfg := tc.Configure()
	if rbidiag {
		_, r := core.BuildRBidiag(g, sh, data, cfg)
		return r
	}
	core.BuildBidiag(g, sh, data, cfg)
	return data
}

type shapeCase struct {
	name    string
	m, n    int
	nb      int
	rbidiag bool
}

var shapeCases = []shapeCase{
	{"square-bidiag", 96, 96, 16, false},
	{"tall-rbidiag", 192, 64, 16, true},
}

func singularValues(t *testing.T, b *band.Matrix) []float64 {
	t.Helper()
	d, e := band.Reduce(b).Bidiagonal()
	sv, err := bdsqr.SingularValues(d, e)
	if err != nil {
		t.Fatalf("bdsqr: %v", err)
	}
	return sv
}

// TestExecutorMatchesSequential is the acceptance property: on every grid
// the distributed executor must produce bitwise-identical tiles — and
// hence bitwise-identical singular values — to the sequential reference.
func TestExecutorMatchesSequential(t *testing.T) {
	grids := []Grid{{2, 2}, {2, 3}, {4, 1}}
	for _, sc := range shapeCases {
		for _, grid := range grids {
			t.Run(sc.name+"/"+grid.String(), func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				a := nla.RandomMatrix(rng, sc.m, sc.n)
				sh := core.ShapeOf(sc.m, sc.n, sc.nb)

				ref := sched.NewGraph()
				refData := tile.FromDense(a, sc.nb)
				refOut := buildGE2BND(ref, sh, refData, grid, 2, sc.rbidiag)
				ref.RunSequential()

				g := sched.NewGraph()
				data := tile.FromDense(a, sc.nb)
				out := buildGE2BND(g, sh, data, grid, 2, sc.rbidiag)
				res, err := Execute(g, Options{Grid: grid, WorkersPerNode: 2})
				if err != nil {
					t.Fatalf("Execute: %v", err)
				}
				if res.TasksRun != len(g.Tasks) {
					t.Fatalf("ran %d of %d tasks", res.TasksRun, len(g.Tasks))
				}
				if !tile.Equal(refOut, out, 0) {
					t.Fatalf("distributed result differs bitwise from sequential")
				}
				svRef := singularValues(t, refOut.ExtractBand(refOut.NB))
				svDist := singularValues(t, out.ExtractBand(out.NB))
				for i := range svRef {
					if svRef[i] != svDist[i] {
						t.Fatalf("singular value %d differs: %v != %v", i, svRef[i], svDist[i])
					}
				}
				if grid.Nodes() > 1 && res.CommCount == 0 {
					t.Fatalf("multi-node run reported no communication")
				}
				if res.PayloadBytes == 0 && grid.Nodes() > 1 {
					t.Fatalf("messages carried no payload on a real-data graph")
				}
			})
		}
	}
}

// TestExecutorCommMatchesSimulator checks the other acceptance property:
// for the same (graph, distribution) pair, measured CommCount/CommVolume
// equal the virtual-time simulator's prediction. Simulation-only graphs
// keep the sweep cheap.
func TestExecutorCommMatchesSimulator(t *testing.T) {
	grids := []Grid{{2, 2}, {2, 3}, {4, 1}, {3, 3}}
	highs := []trees.Kind{trees.FlatTT, trees.Fibonacci, trees.Greedy}
	for _, sc := range shapeCases {
		sh := core.ShapeOf(4*sc.m, 4*sc.n, sc.nb)
		for _, grid := range grids {
			for _, high := range highs {
				tc := AutoDefaults(sh, grid, 4)
				tc.High = high
				g := sched.NewGraph()
				if sc.rbidiag {
					core.BuildRBidiag(g, sh, nil, tc.Configure())
				} else {
					core.BuildBidiag(g, sh, nil, tc.Configure())
				}

				res, err := Execute(g, Options{Grid: grid, WorkersPerNode: 3})
				if err != nil {
					t.Fatalf("Execute: %v", err)
				}
				sim := g.SimulateDistributed(sched.DistConfig{
					Nodes:          grid.Nodes(),
					WorkersPerNode: 3,
					Latency:        1e-6,
					BytesPerTime:   5e9,
					TimeOf:         sched.WeightTime,
				})
				if res.CommCount != sim.CommCount || res.CommVolume != sim.CommVolume {
					t.Errorf("%s grid %v high %v: measured comm (%d, %.0f) != simulated (%d, %.0f)",
						sc.name, grid, high, res.CommCount, res.CommVolume, sim.CommCount, sim.CommVolume)
				}
			}
		}
	}
}

// TestExecutorDedup hand-builds the simulator dedup scenario: one producer,
// three consumers on one remote node — exactly one transfer.
func TestExecutorDedup(t *testing.T) {
	g := sched.NewGraph()
	h := g.NewHandle(500, 0)
	payload := []byte{1, 2, 3, 4}
	h.SetPayload(func() []byte { return payload })
	g.AddTask(kernels.GEQRTKind, 0, 1, 0, nil, sched.RW(h))
	for i := 0; i < 3; i++ {
		g.AddTask(kernels.UNMQRKind, 1, 1, 0, nil, sched.R(h))
	}
	res, err := Execute(g, Options{Grid: Grid{R: 2, C: 1}})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.CommCount != 1 || res.CommVolume != 500 {
		t.Fatalf("dedup failed: count=%d volume=%.0f", res.CommCount, res.CommVolume)
	}
	if res.PayloadBytes != int64(len(payload)) {
		t.Fatalf("payload accounting: %d bytes, want %d", res.PayloadBytes, len(payload))
	}
}

// TestExecutorPayloadCoversAllRegions guards the merged-edge case: a task
// writing several regions read by one remote consumer produces a single
// graph edge, whose message must still carry every region's bytes.
func TestExecutorPayloadCoversAllRegions(t *testing.T) {
	g := sched.NewGraph()
	h1 := g.NewHandle(100, 0)
	h2 := g.NewHandle(40, 0)
	p1 := []byte{1, 1, 1}
	p2 := []byte{2, 2}
	h1.SetPayload(func() []byte { return p1 })
	h2.SetPayload(func() []byte { return p2 })
	g.AddTask(kernels.GEQRTKind, 0, 1, 0, nil, sched.RW(h1), sched.RW(h2))
	g.AddTask(kernels.UNMQRKind, 1, 1, 0, nil, sched.R(h1), sched.R(h2))
	res, err := Execute(g, Options{Grid: Grid{R: 2, C: 1}})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.CommCount != 1 {
		t.Fatalf("want one merged transfer, got %d", res.CommCount)
	}
	if want := int64(len(p1) + len(p2)); res.PayloadBytes != want {
		t.Fatalf("message dropped a region: %d payload bytes, want %d", res.PayloadBytes, want)
	}
}

// failingTransport drops every send with an error.
type failingTransport struct{ inner *ChanTransport }

func (f *failingTransport) Send(Message) error          { return errWireDown }
func (f *failingTransport) Recv(n int32) <-chan Message { return f.inner.Recv(n) }
func (f *failingTransport) Close() error                { return f.inner.Close() }

var errWireDown = fmt.Errorf("wire down")

// TestExecutorSurfacesTransportError: a dead transport must fail Execute,
// not panic or hang.
func TestExecutorSurfacesTransportError(t *testing.T) {
	g := sched.NewGraph()
	h := g.NewHandle(100, 0)
	g.AddTask(kernels.GEQRTKind, 0, 1, 0, nil, sched.RW(h))
	g.AddTask(kernels.UNMQRKind, 1, 1, 0, nil, sched.R(h))
	_, err := Execute(g, Options{
		Grid:      Grid{R: 2, C: 1},
		Transport: &failingTransport{inner: NewChanTransport(2)},
	})
	if err == nil || !errors.Is(err, errWireDown) {
		t.Fatalf("transport failure not surfaced: %v", err)
	}
}

// TestExecuteTracedTaskEventsOnly: in-process ranks share one tracer, so
// they record task events only — one per task, on the global worker lanes
// rank·wpn+w. Comm rings would sit at rank·wpn+wpn and +1, which for
// rank 0 are rank 1's worker lanes; under -race this test is what catches
// two producers on one ring.
func TestExecuteTracedTaskEventsOnly(t *testing.T) {
	sc := shapeCases[0]
	grid := Grid{2, 1}
	const wpn = 2
	sh, data := shapeData(sc)
	g := sched.NewGraph()
	buildGE2BND(g, sh, data, grid, wpn, sc.rbidiag)
	tr := obs.NewTracer(grid.Nodes()*wpn, len(g.Tasks))
	g.Tracer = tr
	res, err := Execute(g, Options{Grid: grid, WorkersPerNode: wpn})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommCount == 0 {
		t.Fatal("the traced run shipped nothing; the test needs cross-rank frames")
	}
	events := tr.Events()
	if n := len(obs.CommEvents(events)); n != 0 {
		t.Fatalf("in-process ranks recorded %d comm events, want none", n)
	}
	seen := make([]int, len(g.Tasks))
	for _, ev := range obs.TaskEvents(events) {
		seen[ev.ID]++
		if ev.Worker < 0 || int(ev.Worker) >= grid.Nodes()*wpn {
			t.Fatalf("task %d recorded on lane %d, outside the %d worker lanes", ev.ID, ev.Worker, grid.Nodes()*wpn)
		}
		if want := ev.Node % int32(grid.Nodes()); ev.Worker/wpn != want {
			t.Fatalf("task %d of node %d recorded on lane %d", ev.ID, ev.Node, ev.Worker)
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("task %d has %d events, want exactly 1 (dropped %d)", id, n, tr.Dropped())
		}
	}
}

func TestChanTransportFIFOAndCopy(t *testing.T) {
	tr := NewChanTransport(2)
	buf := []byte{9}
	for i := int32(0); i < 10; i++ {
		if err := tr.Send(Message{From: 0, To: 1, Producer: i, Payload: buf}); err != nil {
			t.Fatal(err)
		}
	}
	buf[0] = 0 // sender mutates after send; receiver must hold a copy
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var got []int32
	for msg := range tr.Recv(1) {
		got = append(got, msg.Producer)
		if msg.Payload[0] != 9 {
			t.Fatalf("payload aliases sender memory")
		}
	}
	for i, p := range got {
		if p != int32(i) {
			t.Fatalf("FIFO order violated: %v", got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("lost messages: %d of 10", len(got))
	}
}

func TestExecuteRejectsBadOptions(t *testing.T) {
	g := sched.NewGraph()
	if _, err := Execute(g, Options{Grid: Grid{R: 0, C: 2}}); err == nil {
		t.Fatal("invalid grid accepted")
	}
}

// TestTreeConfigOrdersAreValid sweeps grid/shape/step combinations through
// the hierarchical order builder and validates every elimination order.
func TestTreeConfigOrdersAreValid(t *testing.T) {
	for _, grid := range []Grid{{1, 1}, {2, 2}, {3, 2}, {4, 1}} {
		for _, p := range []int{1, 2, 5, 9} {
			sh := core.ShapeOf(p*8, p*8, 8)
			for _, domino := range []bool{false, true} {
				tc := Defaults(sh, grid, 3)
				tc.Domino = domino
				for k := 0; k < p; k++ {
					rows := make([]int, 0, p-k)
					for i := k; i < p; i++ {
						rows = append(rows, i)
					}
					ops := tc.hierOrder(rows, grid.R, grid.RowOf, p-k-1)
					if err := trees.Validate(rows, ops); err != nil {
						t.Fatalf("grid %v p=%d k=%d domino=%v: %v", grid, p, k, domino, err)
					}
				}
			}
		}
	}
}
