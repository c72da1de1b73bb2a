package tile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tiled-la/bidiag/internal/nla"
)

func TestGridGeometry(t *testing.T) {
	m := New(10, 7, 3)
	if m.P != 4 || m.Q != 3 {
		t.Fatalf("grid %dx%d, want 4x3", m.P, m.Q)
	}
	if m.RowsOf(0) != 3 || m.RowsOf(3) != 1 {
		t.Fatalf("edge tile rows wrong")
	}
	if m.ColsOf(0) != 3 || m.ColsOf(2) != 1 {
		t.Fatalf("edge tile cols wrong")
	}
}

func TestExactFitGeometry(t *testing.T) {
	m := New(12, 6, 3)
	if m.P != 4 || m.Q != 2 || m.RowsOf(3) != 3 || m.ColsOf(1) != 3 {
		t.Fatalf("exact-fit geometry wrong")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{10, 7, 3}, {8, 8, 4}, {5, 12, 5}, {1, 1, 4}, {13, 2, 4}} {
		d := nla.RandomMatrix(rng, dims[0], dims[1])
		tm := FromDense(d, dims[2])
		back := tm.ToDense()
		for j := 0; j < d.Cols; j++ {
			for i := 0; i < d.Rows; i++ {
				if back.At(i, j) != d.At(i, j) {
					t.Fatalf("round trip mismatch at (%d,%d) for %v", i, j, dims)
				}
			}
		}
	}
}

// TestEmbeddedAndTransposedConversions pins the converters the
// back-transform builds its operands with against the plain ones.
func TestEmbeddedAndTransposedConversions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{10, 7, 3}, {8, 8, 4}, {5, 12, 5}, {1, 1, 4}, {13, 2, 4}} {
		d := nla.RandomMatrix(rng, dims[0], dims[1])
		nb := dims[2]
		if !Equal(FromDenseT(d, nb), FromDense(d.Transpose(), nb), 0) {
			t.Fatalf("FromDenseT differs from tiling the transpose for %v", dims)
		}
		back := FromDense(d, nb).ToDenseT()
		want := d.Transpose()
		for i := range want.Data {
			if back.Data[i] != want.Data[i] {
				t.Fatalf("ToDenseT differs from the transpose for %v", dims)
			}
		}
		for _, m := range []int{d.Rows, d.Rows + 1, d.Rows + 2*nb + 1} {
			padded := nla.NewMatrix(m, d.Cols)
			nla.CopyInto(padded.View(0, 0, d.Rows, d.Cols), d)
			if !Equal(FromDenseRows(d, m, nb), FromDense(padded, nb), 0) {
				t.Fatalf("FromDenseRows(%d) differs from tiling [d; 0] for %v", m, dims)
			}
		}
	}
}

func TestAtSetElementwise(t *testing.T) {
	m := New(10, 10, 3)
	m.Set(7, 8, 2.5)
	if m.At(7, 8) != 2.5 {
		t.Fatalf("At/Set mismatch")
	}
	if m.Tile(2, 2).At(1, 2) != 2.5 {
		t.Fatalf("element landed in wrong tile slot")
	}
}

func TestTileViewAliases(t *testing.T) {
	m := New(6, 6, 3)
	m.Tile(1, 0).Set(2, 1, 9)
	if m.At(5, 1) != 9 {
		t.Fatalf("tile view does not alias matrix")
	}
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := FromDense(nla.RandomMatrix(rng, 9, 5), 4)
	c := m.Clone()
	c.Set(0, 0, 123)
	if m.At(0, 0) == 123 {
		t.Fatalf("clone aliases source")
	}
}

func TestFrobeniusNormMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := nla.RandomMatrix(rng, 11, 6)
	m := FromDense(d, 4)
	if math.Abs(m.FrobeniusNorm()-d.FrobeniusNorm()) > 1e-12 {
		t.Fatalf("tiled norm differs from dense norm")
	}
}

func TestBandBidiagonalError(t *testing.T) {
	m := New(9, 9, 3)
	// Fill exactly the allowed band 0 ≤ j−i ≤ NB.
	for i := 0; i < 9; i++ {
		for j := i; j <= i+3 && j < 9; j++ {
			m.Set(i, j, 1)
		}
	}
	if e := m.BandBidiagonalError(); e != 0 {
		t.Fatalf("in-band fill flagged: %v", e)
	}
	m.Set(5, 1, 0.25) // below diagonal
	if e := m.BandBidiagonalError(); e != 0.25 {
		t.Fatalf("below-band violation missed: %v", e)
	}
	m.Set(5, 1, 0)
	m.Set(0, 4, 0.5) // beyond the NB-th superdiagonal
	if e := m.BandBidiagonalError(); e != 0.5 {
		t.Fatalf("above-band violation missed: %v", e)
	}
}

func TestExtractBand(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := nla.RandomMatrix(rng, 12, 8)
	m := FromDense(d, 3)
	b := m.ExtractBand(3)
	for i := 0; i < 8; i++ {
		for j := i; j <= i+3 && j < 8; j++ {
			if b.At(i, j) != d.At(i, j) {
				t.Fatalf("band extract mismatch at (%d,%d)", i, j)
			}
		}
	}
	if b.At(0, 4) != 0 {
		t.Fatalf("outside band should read zero")
	}
}

func TestEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := FromDense(nla.RandomMatrix(rng, 7, 7), 3)
	b := a.Clone()
	if !Equal(a, b, 0) {
		t.Fatalf("identical matrices reported unequal")
	}
	b.Set(6, 6, b.At(6, 6)+1e-3)
	if Equal(a, b, 1e-6) {
		t.Fatalf("different matrices reported equal")
	}
	if !Equal(a, b, 1e-2) {
		t.Fatalf("tolerance not honored")
	}
	c := FromDense(nla.RandomMatrix(rng, 7, 7), 4)
	if Equal(a, c, 1e10) {
		t.Fatalf("different tilings must compare unequal")
	}
}

// Property: round-tripping through tiles preserves every element for
// arbitrary shapes and tile sizes.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(30), 1+rng.Intn(30)
		nb := 1 + rng.Intn(9)
		d := nla.RandomMatrix(rng, m, n)
		back := FromDense(d, nb).ToDense()
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if back.At(i, j) != d.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
