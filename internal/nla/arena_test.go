package nla

import "testing"

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

func TestArenaOversizeFallsBack(t *testing.T) {
	var a Arena
	big := a.Vec(arenaChunk + 1)
	if len(big) != arenaChunk+1 || len(a.used) != 0 {
		t.Fatalf("oversize Vec: len %d, %d chunks taken; want make and none", len(big), len(a.used))
	}
	for _, x := range big {
		if x != 0 {
			t.Fatal("the make fallback must be zeroed")
		}
	}
	// A request that does not fit the rest of a chunk starts a new one.
	a.Vec(arenaChunk - 8)
	a.Vec(16)
	if len(a.used) != 2 {
		t.Fatalf("%d chunks in use, want 2", len(a.used))
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

	// The pool hands the released chunks out again. (Under -race a
	// sync.Pool drops a random quarter of what is put back; eight chunks
	// all dropped is a 1-in-65536 event.)
	back := 0
	for i := 0; i < 8; i++ {
		if held[chunkPool.Get().(*chunk)] {
			back++
		}
	}
	if back == 0 {
		t.Fatal("no released chunk came back from the pool")
	}

	// The arena is reusable after Release.
	v := a.Vec(3)
	if len(v) != 3 || len(a.used) != 1 {
		t.Fatalf("Vec after Release: len %d, %d chunks", len(v), len(a.used))
	}
	a.Release()
}
