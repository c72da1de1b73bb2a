package nla

import "sync"

// arenaChunk is the size of an Arena chunk in float64s (1 MiB): 32
// 64×64 tiles, or a 256×256 R factor in two.
const arenaChunk = 1 << 17

type chunk [arenaChunk]float64

// chunkPool is the one process-wide pool every Arena draws its chunks from
// and releases them to. The GC empties a sync.Pool over two cycles, so
// chunks nobody has used for that long are reclaimed.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// Arena hands out memory that lives as long as one job: the job's tiles,
// its T factors and their tau vectors. It is a bump allocator over
// fixed-size chunks drawn from a process-wide pool; Release returns them
// for the next job. Like Workspace.Scratch, the memory is UNINITIALIZED —
// the caller writes before it reads, and recycled chunks hold a previous
// job's data. A request larger than a chunk falls back to make.
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
}

// Vec returns an uninitialized length-n slice whose capacity is n, so an
// append reallocates instead of spilling into the next checkout.
func (a *Arena) Vec(n int) []float64 {
	if a == nil || n > arenaChunk {
		return make([]float64, n)
	}
	if len(a.used) == 0 || a.off+n > arenaChunk {
		a.used = append(a.used, chunkPool.Get().(*chunk))
		a.off = 0
	}
	c := a.used[len(a.used)-1]
	s := c[a.off : a.off+n : a.off+n]
	// Every checkout starts on a 64-byte cache line.
	a.off = min(a.off+((n+7)&^7), arenaChunk)
	return s
}

// Matrix returns an uninitialized r×c matrix with LD == max(r, 1).
func (a *Arena) Matrix(r, c int) *Matrix {
	ld := max(r, 1)
	return &Matrix{Rows: r, Cols: c, LD: ld, Data: a.Vec(ld * c)}
}

// Release hands every chunk back to the pool and empties the arena for
// reuse. Everything checked out of it must no longer be used. Releasing
// an empty (or nil) arena does nothing.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	for i, c := range a.used {
		chunkPool.Put(c)
		a.used[i] = nil
	}
	a.used, a.off = a.used[:0], 0
}
