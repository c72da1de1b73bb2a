package nla

import (
	"runtime"
	"testing"
)

func TestArenaZeroValue(t *testing.T) {
	var a Arena
	v := a.Vec(10)
	if len(v) != 10 || cap(v) != 10 {
		t.Fatalf("Vec(10): len %d cap %d", len(v), cap(v))
	}
	m := a.Matrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.LD != 3 || len(m.Data) != 12 {
		t.Fatalf("Matrix(3, 4) = %d×%d LD %d len %d", m.Rows, m.Cols, m.LD, len(m.Data))
	}
	if e := a.Matrix(0, 5); e.LD != 1 || len(e.Data) != 5 {
		t.Fatalf("Matrix(0, 5): LD %d len %d, want 1 and 5", e.LD, len(e.Data))
	}
	m.Set(2, 3, 7)
	if len(a.used) != 1 {
		t.Fatalf("three small checkouts took %d chunks, want 1", len(a.used))
	}

	var nilArena *Arena
	z := nilArena.Matrix(4, 4)
	for _, x := range z.Data {
		if x != 0 {
			t.Fatal("a nil arena must allocate zeroed memory")
		}
	}
	nilArena.Release()
}

func TestArenaAppendDoesNotSpill(t *testing.T) {
	var a Arena
	defer a.Release()
	x := a.Vec(8) // a whole cache line: y starts right after it
	y := a.Vec(8)
	for i := range y {
		y[i] = 7
	}
	x = append(x, 1, 2, 3)
	for i, v := range y {
		if v != 7 {
			t.Fatalf("append to a checkout overwrote its neighbour at %d: %v", i, y)
		}
	}
	x[0] = -1
	if y[0] != 7 {
		t.Fatal("the appended slice still aliases the arena")
	}
}

func TestArenaOversizeTakesABuffer(t *testing.T) {
	var a Arena
	big := a.Vec(arenaChunk + 1)
	if len(big) != arenaChunk+1 || cap(big) != arenaChunk+1 || len(a.used) != 0 || len(a.bufs) != 1 {
		t.Fatalf("oversize Vec: len %d cap %d, %d chunks and %d buffers taken; want one buffer",
			len(big), cap(big), len(a.used), len(a.bufs))
	}
	if got := len(*a.bufs[0]); got != 2*arenaChunk {
		t.Fatalf("a %d-element checkout took a %d-element buffer, want the class %d", arenaChunk+1, got, 2*arenaChunk)
	}
	// Buffer never carves a chunk, whatever its size.
	small := a.Buffer(3)
	if len(small) != 3 || cap(small) != 3 || len(a.used) != 0 || len(a.bufs) != 2 {
		t.Fatalf("Buffer(3): len %d cap %d, %d chunks, %d buffers", len(small), cap(small), len(a.used), len(a.bufs))
	}
	// A request that does not fit the rest of a chunk starts a new one.
	a.Vec(arenaChunk - 8)
	a.Vec(16)
	if len(a.used) != 2 {
		t.Fatalf("%d chunks in use, want 2", len(a.used))
	}
	a.Release()
	if len(a.bufs) != 0 {
		t.Fatalf("after Release: %d buffers", len(a.bufs))
	}

	var nilArena *Arena
	for _, x := range nilArena.Buffer(arenaChunk + 1) {
		if x != 0 {
			t.Fatal("a nil arena's Buffer must be zeroed make")
		}
	}
}

func TestArenaBufferRecycles(t *testing.T) {
	const n = 3 << 10 // class 4096
	var a Arena
	held := map[*float64]bool{}
	for i := 0; i < 8; i++ {
		b := a.Buffer(n)
		held[&b[0]] = true
	}
	if len(held) != 8 {
		t.Fatalf("8 live buffers share storage: %d distinct", len(held))
	}
	a.Release()
	// The class pool hands the released buffers out again, to any request
	// of the class, capped at the length asked for.
	back := 0
	for i := 0; i < 8; i++ {
		b := a.Buffer(4 << 10)
		if cap(b) != 4<<10 {
			t.Fatalf("cap %d, want %d", cap(b), 4<<10)
		}
		if held[&b[0]] {
			back++
		}
	}
	if back != 8 {
		t.Fatalf("%d of 8 released buffers came back from their class pool", back)
	}
	a.Release()
}

func TestArenaReleaseRecycles(t *testing.T) {
	var a Arena
	held := map[*chunk]bool{}
	for i := 0; i < 8; i++ {
		a.Vec(arenaChunk)
		held[a.used[len(a.used)-1]] = true
	}
	if len(held) != 8 {
		t.Fatalf("8 full-chunk checkouts drew %d distinct chunks", len(held))
	}
	used := a.used
	a.Release()
	if len(a.used) != 0 || a.off != 0 {
		t.Fatalf("after Release: %d chunks, offset %d", len(a.used), a.off)
	}
	for i, c := range used[:8] {
		if c != nil {
			t.Fatalf("Release kept a reference to chunk %d", i)
		}
	}
	a.Release() // a second Release is harmless

	// The pool hands the released chunks out again.
	back := 0
	for i := 0; i < 8; i++ {
		if held[chunkPool.Get()] {
			back++
		}
	}
	if back != 8 {
		t.Fatalf("%d of 8 released chunks came back from the pool", back)
	}

	// The arena is reusable after Release.
	v := a.Vec(3)
	if len(v) != 3 || len(a.used) != 1 {
		t.Fatalf("Vec after Release: len %d, %d chunks", len(v), len(a.used))
	}
	a.Release()
}

// TestArenaBufferCrossesGoroutines releases a buffer on one goroutine and
// checks it out on another, as bidiagd's handler of one request and of
// the next do: the buffer must come back whichever processor either runs
// on. (A sync.Pool missed it now and then, and a served 8 MB matrix was
// made anew.)
func TestArenaBufferCrossesGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	const n = 5 << 10 // class 8192, which no other test uses
	a := new(Arena)
	want := &a.Buffer(n)[0]
	for i := 0; i < 200; i++ {
		next := make(chan *Arena)
		go func(done *Arena) {
			done.Release()
			go func() {
				c := new(Arena)
				c.Buffer(n)
				next <- c
			}()
		}(a)
		a = <-next
		if &(*a.bufs[0])[0] != want {
			t.Fatalf("round %d: the buffer released on another goroutine did not come back", i)
		}
	}
	a.Release()
}
