package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/bdsqr"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/tile"
)

// valuesOf finishes an executed plan the sequential way: band chase,
// then the bidiagonal QR iteration.
func valuesOf(t *testing.T, p *pipeline.Plan) []float64 {
	t.Helper()
	d, e := band.Reduce(p.Tiles.ExtractBand(p.Tiles.NB)).Bidiagonal()
	sv, err := bdsqr.SingularValues(d, e)
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

// fresh builds gj's graph over a for the call alone, as the first job of
// a template's key does.
func fresh(gj pipeline.GridJob, a *nla.Matrix) *pipeline.Plan {
	spec := gj.Spec(a.Rows, a.Cols)
	spec.Data = tile.FromDense(a, gj.NB)
	return pipeline.Build(spec)
}

// sequentialSV computes the reference singular values through the same
// graph the cluster runs, on one address space.
func sequentialSV(t *testing.T, a *nla.Matrix, gj pipeline.GridJob) []float64 {
	t.Helper()
	p := fresh(gj, a)
	if err := p.Graph.RunSequential(); err != nil {
		t.Fatal(err)
	}
	return valuesOf(t, p)
}

// runJob pushes one job through the head the way its callers do: check
// out the grid job's template, execute it on the mesh, finish on the
// gathered band and give the template back.
func runJob(t *testing.T, head *Head, a *nla.Matrix, gj pipeline.GridJob, trace bool) ([]float64, *pipeline.Report, *MergedTrace) {
	t.Helper()
	p := pipeline.Template(gj, a, false)
	job := head.Job(a, gj, trace)
	rep, err := pipeline.Run(p, job)
	if err != nil {
		t.Fatal(err)
	}
	sv := valuesOf(t, p)
	p.Return()
	return sv, rep, job.Trace
}

// TestClusterSingularValues boots a head plus peers on one in-process
// mesh and pushes several jobs through back to back — mixed algorithms
// and shapes, exercising mesh reuse — checking every result bitwise
// against the sequential reference.
func TestClusterSingularValues(t *testing.T) {
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

	jobs := []struct {
		m, n int
		gj   pipeline.GridJob
	}{
		{96, 96, pipeline.GridJob{NB: 16, Grid: grid, WPN: 2}},
		{192, 64, pipeline.GridJob{NB: 16, RBidiag: true, Grid: grid, WPN: 2, Gamma: 3}},
		{80, 80, pipeline.GridJob{NB: 16, Grid: grid, WPN: 1, Gemm: nla.Blocking{MC: 32, KC: 32, NC: 64}}},
	}
	rng := rand.New(rand.NewSource(11))
	for i, job := range jobs {
		a := nla.RandomMatrix(rng, job.m, job.n)
		sv, rep, _ := runJob(t, head, a, job.gj, false)
		ref := sequentialSV(t, a, job.gj)
		if len(sv) != len(ref) {
			t.Fatalf("job %d: %d singular values, want %d", i, len(sv), len(ref))
		}
		for k := range ref {
			if sv[k] != ref[k] {
				t.Fatalf("job %d: singular value %d differs: %v != %v", i, k, sv[k], ref[k])
			}
		}
		if rep.Dist.CommCount == 0 {
			t.Fatalf("job %d: no communication on a %d-rank mesh", i, n)
		}
	}
	if head.CommBytes() == 0 {
		t.Fatal("head counted no communication volume")
	}

	// A cancelled context is honoured before the announcement goes out: the
	// job fails on the head alone and the mesh takes the next one.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := nla.RandomMatrix(rng, 64, 64)
	gj := jobs[0].gj
	if _, err := head.Job(a, gj, false).Execute(ctx, fresh(gj, a).Graph); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job: %v, want context.Canceled", err)
	}
	if sv, _, _ := runJob(t, head, a, gj, false); sv[0] != sequentialSV(t, a, gj)[0] {
		t.Fatal("job after a cancelled one differs from the reference")
	}
	// So is a job for some other grid.
	other := pipeline.GridJob{NB: 16, Grid: dist.Grid{R: 4, C: 1}, WPN: 1}
	if _, err := head.Job(a, other, false).Execute(context.Background(), fresh(other, a).Graph); err == nil {
		t.Fatal("job for a 4x1 grid ran on a 2x2 mesh")
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

// validJobFrame is a well-formed announcement of a 7x5 job.
func validJobFrame(t testing.TB) (jobSpec, *nla.Matrix, []byte) {
	t.Helper()
	a := nla.RandomMatrix(rand.New(rand.NewSource(3)), 7, 5)
	spec := jobSpec{Op: opJob, M: 7, N: 5, Trace: true, Seq: 9, Plan: pipeline.GridJob{
		NB: 4, RBidiag: true, Grid: dist.Grid{R: 2, C: 1}, WPN: 3, Gamma: 3, Gemm: nla.Blocking{MC: 8, KC: 16, NC: 32},
	}}
	buf, err := encodeJob(spec, a)
	if err != nil {
		t.Fatal(err)
	}
	return spec, a, buf
}

// hugeShapeFrame declares m = 2³¹, n = 2³⁰ over no data: 8·m·n wraps to 0
// in an int, so a size check on the wrapped product would pass and the
// allocation panic.
func hugeShapeFrame() []byte {
	hdr := []byte(`{"op":"job","m":2147483648,"n":1073741824,"plan":{"nb":64,"wpn":1}}`)
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(hdr))), hdr...)
}

// TestClusterJobCodec round-trips the control-frame encoding.
func TestClusterJobCodec(t *testing.T) {
	spec, a, buf := validJobFrame(t)
	got, b, err := decodeJob(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Fatalf("spec mismatch: %+v != %+v", got, spec)
	}
	for j := 0; j < 5; j++ {
		for i := 0; i < 7; i++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("data mismatch at (%d,%d)", i, j)
			}
		}
	}
	// A strided view encodes as its own columns, not its parent's.
	view := nla.FromColMajor(3, 2, a.LD, a.Data[1:])
	vspec := spec
	vspec.M, vspec.N = 3, 2
	vbuf, err := encodeJob(vspec, view)
	if err != nil {
		t.Fatal(err)
	}
	if _, vb, err := decodeJob(vbuf); err != nil || vb.At(2, 1) != a.At(3, 1) || vb.At(0, 0) != a.At(1, 0) {
		t.Fatalf("strided view round trip: %v", err)
	}
	// Shutdown frames carry no data.
	sbuf, err := frameHeader(jobSpec{Op: opShutdown}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, m, err := decodeJob(sbuf)
	if err != nil || s.Op != opShutdown || m != nil {
		t.Fatalf("shutdown decode: %+v %v %v", s, m, err)
	}
	// Neither job nor shutdown: an error, not a job without a matrix.
	if other, err := frameHeader(jobSpec{Op: opTrace}, 0); err != nil {
		t.Fatal(err)
	} else if _, _, err := decodeJob(other); err == nil {
		t.Fatal("trace frame accepted as a job announcement")
	}
	// Truncated data must error, not build a short matrix.
	if _, _, err := decodeJob(buf[:len(buf)-8]); err == nil {
		t.Fatal("truncated job accepted")
	}
	// A header length near MaxUint32 must fail the bounds check, not
	// wrap in uint32 arithmetic and panic slicing past the frame.
	for _, hl := range []uint32{0xFFFFFFFC, 0xFFFFFFFF, 5} {
		bad := binary.LittleEndian.AppendUint32(nil, hl)
		bad = append(bad, 0)
		if _, _, err := decodeJob(bad); err == nil {
			t.Fatalf("oversized header length %#x accepted", hl)
		}
	}
	// Nor may the data size wrap: this frame used to pass the length
	// check with 0 == 0 and panic allocating the matrix.
	if _, _, err := decodeJob(hugeShapeFrame()); err == nil {
		t.Fatal("2^31 x 2^30 job over an empty data segment accepted")
	}
}

// FuzzDecodeJob feeds the control-frame decoder arbitrary bytes: it must
// return an error or a matrix of exactly the declared shape, never panic
// and never allocate beyond the frame it was handed.
func FuzzDecodeJob(f *testing.F) {
	_, _, valid := validJobFrame(f)
	f.Add(valid)
	shutdown, _ := frameHeader(jobSpec{Op: opShutdown}, 0)
	f.Add(shutdown)
	f.Add(hugeShapeFrame())
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFC), 0))
	f.Add(valid[:9]) // truncated header
	f.Fuzz(func(t *testing.T, frame []byte) {
		spec, a, err := decodeJob(frame)
		if err != nil || spec.Op != opJob {
			if a != nil {
				t.Fatalf("matrix returned with err %v op %q", err, spec.Op)
			}
			return
		}
		if a.Rows != spec.M || a.Cols != spec.N || 8*len(a.Data) > len(frame) {
			t.Fatalf("decoded %dx%d (%d words) from a %d-byte frame declaring %dx%d",
				a.Rows, a.Cols, len(a.Data), len(frame), spec.M, spec.N)
		}
		again, err := encodeJob(spec, a)
		if err != nil {
			t.Fatal(err)
		}
		if _, b, err := decodeJob(again); err != nil || len(b.Data) != len(a.Data) {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
	})
}

// TestClusterOverTCP is the end-to-end transport stack: head and peers on
// real loopback TCP transports, one job, bitwise-checked.
func TestClusterOverTCP(t *testing.T) {
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
	sv, rep, _ := runJob(t, head, a, gj, false)
	if rep.Dist.WireBytes == 0 {
		t.Fatal("TCP run reported no wire bytes")
	}
	ref := sequentialSV(t, a, gj)
	for k := range ref {
		if sv[k] != ref[k] {
			t.Fatalf("singular value %d differs over TCP: %v != %v", k, sv[k], ref[k])
		}
	}
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}
	peers.Wait()
	if peerErr != nil {
		t.Fatalf("peer: %v", peerErr)
	}
}

// TestClusterBackToBackJobs queues many tiny jobs on the head from several
// goroutines, the way a busy Service does: job J+1 is announced the moment
// J returns. A peer goes on reading its job plane until its NIC has
// drained, which is after the gather that lets the head finish J — so
// without the end-of-job barrier J+1's first frames could land in a
// peer's job-J receiver and J+1 would stall.
func TestClusterBackToBackJobs(t *testing.T) {
	grid := dist.Grid{R: 2, C: 1}
	trs := tcpPair(t)
	peerErr := make(chan error, 1)
	go func() {
		peerErr <- ServePeer(Config{Grid: grid, Transport: trs[1], Rank: 1, StallTimeout: 10 * time.Second})
	}()
	head, err := NewHead(Config{Grid: grid, Transport: trs[0], Rank: 0, StallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	gj := pipeline.GridJob{NB: 1, Grid: grid, WPN: 2}
	var clients sync.WaitGroup
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for r := 0; r < 25; r++ {
				a := nla.NewMatrix(3, 2)
				a.Set(0, 0, float64(c+3))
				a.Set(1, 1, 1)
				p := pipeline.Template(gj, a, false)
				if _, err := pipeline.Run(p, head.Job(a, gj, r%8 == 0)); err != nil {
					t.Errorf("client %d job %d: %v", c, r, err)
					return
				}
				if got := p.Tiles.ExtractBand(1).At(0, 0); math.Abs(got) != float64(c+3) {
					t.Errorf("client %d job %d: band(0,0) = %v", c, r, got)
					return
				}
				p.Return()
			}
		}(c)
	}
	clients.Wait()
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-peerErr; err != nil {
		t.Fatalf("peer: %v", err)
	}
}

// tcpPair brings up a two-rank loopback TCP mesh.
func tcpPair(t *testing.T) []*dist.TCPTransport {
	t.Helper()
	trs, err := dist.LoopbackTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	return trs
}

// TestTemplateReuseOnMesh runs jobs B, A, B on a two-rank loopback TCP
// mesh, where the head and the peer each check out the template of the
// job's key, fill it from the input and give it back after their share:
// B must come back bitwise the same each time, and equal to the
// in-process owner-compute run of a graph built for it alone.
func TestTemplateReuseOnMesh(t *testing.T) {
	grid := dist.Grid{R: 2, C: 1}
	trs := tcpPair(t)
	peerErr := make(chan error, 1)
	go func() {
		peerErr <- ServePeer(Config{Grid: grid, Transport: trs[1], Rank: 1, StallTimeout: 30 * time.Second})
	}()
	head, err := NewHead(Config{Grid: grid, Transport: trs[0], Rank: 0, StallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct {
		m, n int
		gj   pipeline.GridJob
	}{
		{96, 96, pipeline.GridJob{NB: 16, Grid: grid, WPN: 2}},
		{192, 48, pipeline.GridJob{NB: 16, RBidiag: true, Grid: grid, WPN: 2}},
	} {
		b, a := nla.RandomMatrix(rng, c.m, c.n), nla.RandomMatrix(rng, c.m, c.n)
		p := fresh(c.gj, b)
		if _, err := pipeline.Run(p, pipeline.OwnerCompute{Grid: grid, WorkersPerNode: c.gj.WPN}); err != nil {
			t.Fatal(err)
		}
		want := valuesOf(t, p)
		for i, in := range []*nla.Matrix{b, a, b} {
			got, _, _ := runJob(t, head, in, c.gj, false)
			if in == b && !slices.Equal(got, want) {
				t.Fatalf("%dx%d: job %d, B on the mesh's templates, differs from B in process on a fresh graph", c.m, c.n, i)
			}
		}
	}
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-peerErr; err != nil {
		t.Fatalf("peer: %v", err)
	}
}
