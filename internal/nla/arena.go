package nla

import (
	"math/bits"
	"runtime"
	"sync"
)

// arenaChunk is the size of an Arena chunk in float64s (1 MiB): 32
// 64×64 tiles, or a 256×256 R factor in two.
const arenaChunk = 1 << 17

type chunk [arenaChunk]float64

// chunkPool is the one process-wide pool every Arena draws its chunks from
// and releases them to.
var chunkPool = FreeList[*chunk]{New: func() *chunk { return new(chunk) }}

// bufferPools[k] holds the class-k buffers of Arena.Buffer, 2^k float64s
// each. Like chunkPool, they are process-wide.
var bufferPools [bits.UintSize]FreeList[*[]float64]

// FreeList is the process's one way to recycle memory: a pool any
// goroutine takes from what any other put back, newest first. A sync.Pool
// hands an object back only on the processor that put it there, so a
// served matrix buffer was made anew now and then, and under the race
// detector it drops a random quarter of what is put back. What lies idle
// for two GC cycles is dropped (EveryGC ages a list from its first Put).
// The zero FreeList is ready; use it by pointer.
type FreeList[T any] struct {
	// New, when set, makes what Get finds no idle one of; without it
	// such a Get returns the zero T.
	New func() T

	mu        sync.Mutex
	aging     bool
	idle, old []T
}

// Get takes the newest idle object, or makes one with New.
func (l *FreeList[T]) Get() (x T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range [2]*[]T{&l.idle, &l.old} {
		if n := len(*s); n > 0 {
			x, (*s)[n-1], *s = (*s)[n-1], x, (*s)[:n-1]
			return x
		}
	}
	if l.New != nil {
		x = l.New()
	}
	return x
}

// Put makes x idle, for the next Get.
func (l *FreeList[T]) Put(x T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.aging {
		l.aging = true
		EveryGC(l.age)
	}
	l.idle = append(l.idle, x)
}

// age drops what was idle at the last tick and keeps what is idle now
// for one more.
func (l *FreeList[T]) age() {
	l.mu.Lock()
	clear(l.old)
	l.idle, l.old = l.old[:0], l.idle
	l.mu.Unlock()
}

// DropIdle leaves every chunk and buffer the pools hold to the GC, as
// two GC cycles would: the next checkouts get zeroed memory.
func DropIdle() {
	for range 2 {
		chunkPool.age()
		for i := range bufferPools {
			bufferPools[i].age()
		}
	}
}

var gcHooks struct {
	sync.Mutex
	fs []func()
}

// EveryGC runs f once per GC cycle, on the finalizer goroutine, from
// now on: the clock that ages the free lists of this package and the
// idle task-graph templates of pipeline.
func EveryGC(f func()) {
	gcHooks.Lock()
	gcHooks.fs = append(gcHooks.fs, f)
	gcHooks.Unlock()
}

type gcTick struct{ _ [16]byte }

func init() { tick(new(gcTick)) }

func tick(t *gcTick) {
	gcHooks.Lock()
	fs := gcHooks.fs
	gcHooks.Unlock()
	for _, f := range fs {
		f()
	}
	runtime.SetFinalizer(t, tick)
}

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
		c := chunkPool.Get()
		a.used = append(a.used, c)
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
	b := bufferPools[k].Get()
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
