package nla

import (
	"math/bits"
	"sync"
)

// arenaChunk is the size of an Arena chunk in float64s (1 MiB): 32
// 64×64 tiles, or a 256×256 R factor in two.
const arenaChunk = 1 << 17

type chunk [arenaChunk]float64

// chunkPool is the one process-wide pool every Arena draws its chunks from
// and releases them to. The GC empties a sync.Pool over two cycles, so
// chunks nobody has used for that long are reclaimed.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// bufferPools[k] holds the class-k buffers of Arena.Buffer, 2^k float64s
// each. Like chunkPool, they are process-wide and emptied by the GC.
var bufferPools [bits.UintSize]sync.Pool

// Arena hands out memory that lives as long as one job: the job's tiles,
// its T factors and their tau vectors, its band and chase work array, and
// in the daemon the request matrix itself. Small checkouts are bumped off
// fixed-size chunks drawn from a process-wide pool; a checkout larger than
// a chunk, or one taken with Buffer, gets a buffer of its own from a
// power-of-two size class. Release returns both for the next job. Like
// Workspace.Scratch, the memory is UNINITIALIZED — the caller writes
// before it reads, and recycled memory holds a previous job's data.
//
// The zero Arena is ready to use, and a nil *Arena allocates with make
// (zeroed), so code that carves from an optional arena needs no branch.
// An Arena is not safe for concurrent use. Release only once nothing can
// touch the memory again: an arena that is never released is ordinary
// GC-owned memory, which is the right end for a job that failed with
// tasks possibly still in flight.
type Arena struct {
	used []*chunk
	off  int // elements handed out of the last chunk
	bufs []*[]float64
}

// Vec returns an uninitialized length-n slice whose capacity is n, so an
// append reallocates instead of spilling into the next checkout.
func (a *Arena) Vec(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if n > arenaChunk {
		return a.Buffer(n)
	}
	if len(a.used) == 0 || a.off+n > arenaChunk {
		a.used = append(a.used, chunkPool.Get().(*chunk))
		a.off = 0
	}
	c := a.used[len(a.used)-1]
	s := c[a.off : a.off+n : a.off+n]
	// Every checkout starts on a 64-byte cache line.
	a.off = min(a.off+((n+7)&^7), arenaChunk)
	poison(s)
	return s
}

// Buffer returns an uninitialized length-n slice of capacity n that has a
// buffer to itself: the smallest power-of-two class holding n elements,
// from that class's pool. It never carves a chunk, so one large checkout
// (a served matrix) costs at most twice its size, not a chunk's worth more.
func (a *Arena) Buffer(n int) []float64 {
	if a == nil || n == 0 {
		return make([]float64, n)
	}
	k := bits.Len(uint(n - 1))
	b, _ := bufferPools[k].Get().(*[]float64)
	if b == nil {
		s := make([]float64, 1<<k)
		b = &s
	}
	a.bufs = append(a.bufs, b)
	poison((*b)[:n])
	return (*b)[:n:n]
}

// Matrix returns an uninitialized r×c matrix with LD == max(r, 1).
func (a *Arena) Matrix(r, c int) *Matrix {
	ld := max(r, 1)
	return &Matrix{Rows: r, Cols: c, LD: ld, Data: a.Vec(ld * c)}
}

// Release hands every chunk and buffer back to its pool and empties the
// arena for reuse. Everything checked out of it must no longer be used.
// Releasing an empty (or nil) arena does nothing.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	a.Poison()
	for i, c := range a.used {
		chunkPool.Put(c)
		a.used[i] = nil
	}
	for i, b := range a.bufs {
		bufferPools[bits.TrailingZeros(uint(len(*b)))].Put(b)
		a.bufs[i] = nil
	}
	a.used, a.off, a.bufs = a.used[:0], 0, a.bufs[:0]
}

// Poison NaN-fills everything the arena holds in a poison build (see
// poison): a template's working set on checkout.
func (a *Arena) Poison() {
	for _, c := range a.used {
		poison(c[:])
	}
	for _, b := range a.bufs {
		poison(*b)
	}
}
