// Package tile implements the tiled matrix layout used by the bidiagonal
// reduction algorithms: the matrix is partitioned into nb×nb tiles (edge
// tiles may be smaller), each stored as its own contiguous column-major
// slab so that a tile kernel touches exactly one or two slabs.
package tile

import (
	"fmt"
	"math"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/nla"
)

// Matrix is an M×N element matrix split into P×Q tiles of size NB (the
// last tile row/column may be smaller).
type Matrix struct {
	M, N, NB int
	P, Q     int
	tiles    []*nla.Matrix // index i + j*P
	arena    *nla.Arena
}

// New allocates a zeroed tiled matrix.
func New(m, n, nb int) *Matrix { return NewIn(nil, m, n, nb) }

// NewIn returns a tiled matrix whose tiles are carved from a, and are
// therefore UNINITIALIZED: the caller writes every element before reading
// it. A nil arena allocates zeroed tiles, as New does. The matrix keeps a,
// so the graph builders carve the job's other working memory from it too.
func NewIn(a *nla.Arena, m, n, nb int) *Matrix {
	if m <= 0 || n <= 0 || nb <= 0 {
		panic(fmt.Sprintf("tile: invalid dimensions m=%d n=%d nb=%d", m, n, nb))
	}
	p := (m + nb - 1) / nb
	q := (n + nb - 1) / nb
	t := &Matrix{M: m, N: n, NB: nb, P: p, Q: q, tiles: make([]*nla.Matrix, p*q), arena: a}
	for j := 0; j < q; j++ {
		for i := 0; i < p; i++ {
			t.tiles[i+j*p] = a.Matrix(t.RowsOf(i), t.ColsOf(j))
		}
	}
	return t
}

// Arena returns the arena the tiles were carved from (nil when they were
// allocated with make).
func (t *Matrix) Arena() *nla.Arena { return t.arena }

// RowsOf returns the height of tile row i.
func (t *Matrix) RowsOf(i int) int {
	if i == t.P-1 {
		return t.M - (t.P-1)*t.NB
	}
	return t.NB
}

// ColsOf returns the width of tile column j.
func (t *Matrix) ColsOf(j int) int {
	if j == t.Q-1 {
		return t.N - (t.Q-1)*t.NB
	}
	return t.NB
}

// Tile returns tile (i, j). The returned matrix shares storage with t.
func (t *Matrix) Tile(i, j int) *nla.Matrix {
	if i < 0 || j < 0 || i >= t.P || j >= t.Q {
		panic(fmt.Sprintf("tile: Tile(%d,%d) out of %dx%d grid", i, j, t.P, t.Q))
	}
	return t.tiles[i+j*t.P]
}

// At returns element (i, j) of the underlying matrix.
func (t *Matrix) At(i, j int) float64 {
	return t.Tile(i/t.NB, j/t.NB).At(i%t.NB, j%t.NB)
}

// Set assigns element (i, j) of the underlying matrix.
func (t *Matrix) Set(i, j int, v float64) {
	t.Tile(i/t.NB, j/t.NB).Set(i%t.NB, j%t.NB, v)
}

// FromDense converts a dense matrix into tiled layout.
func FromDense(d *nla.Matrix, nb int) *Matrix { return FromDenseIn(nil, d, nb) }

// FromDenseIn converts a dense matrix into tiled layout carved from a
// (see NewIn); the copy writes every element.
func FromDenseIn(a *nla.Arena, d *nla.Matrix, nb int) *Matrix {
	return NewIn(a, d.Rows, d.Cols, nb).Fill(d)
}

// FromDenseRows returns the tiled m×d.Cols matrix [d; 0]: d in the top
// rows, zeros below (m ≥ d.Rows).
func FromDenseRows(d *nla.Matrix, m, nb int) *Matrix {
	return New(m, d.Cols, nb).Fill(d)
}

// Fill copies d (d.Cols == t.N, d.Rows ≤ t.M) into the top rows of t and
// returns t; the rows below keep what they held.
func (t *Matrix) Fill(d *nla.Matrix) *Matrix {
	nb := t.NB
	for j := 0; j < t.Q; j++ {
		for i := 0; i < t.P && i*nb < d.Rows; i++ {
			rows := min(t.RowsOf(i), d.Rows-i*nb)
			nla.CopyInto(t.Tile(i, j).View(0, 0, rows, t.ColsOf(j)), d.View(i*nb, j*nb, rows, t.ColsOf(j)))
		}
	}
	return t
}

// FromDenseT converts the transpose of a dense matrix into tiled layout.
func FromDenseT(d *nla.Matrix, nb int) *Matrix {
	t := New(d.Cols, d.Rows, nb)
	for j := 0; j < t.Q; j++ {
		for i := 0; i < t.P; i++ {
			tl := t.Tile(i, j)
			for c := 0; c < tl.Cols; c++ {
				for r := 0; r < tl.Rows; r++ {
					tl.Data[r+c*tl.LD] = d.Data[(j*nb+c)+(i*nb+r)*d.LD]
				}
			}
		}
	}
	return t
}

// ToDense converts back to a dense matrix.
func (t *Matrix) ToDense() *nla.Matrix {
	d := nla.NewMatrix(t.M, t.N)
	for j := 0; j < t.Q; j++ {
		for i := 0; i < t.P; i++ {
			nla.CopyInto(d.View(i*t.NB, j*t.NB, t.RowsOf(i), t.ColsOf(j)), t.Tile(i, j))
		}
	}
	return d
}

// ToDenseT converts the transpose of t to a dense matrix.
func (t *Matrix) ToDenseT() *nla.Matrix {
	d := nla.NewMatrix(t.N, t.M)
	for j := 0; j < t.Q; j++ {
		for i := 0; i < t.P; i++ {
			tl := t.Tile(i, j)
			for r := 0; r < tl.Rows; r++ {
				for c := 0; c < tl.Cols; c++ {
					d.Data[(j*t.NB+c)+(i*t.NB+r)*d.LD] = tl.Data[r+c*tl.LD]
				}
			}
		}
	}
	return d
}

// Clone returns a deep copy.
func (t *Matrix) Clone() *Matrix {
	c := New(t.M, t.N, t.NB)
	for i := range t.tiles {
		nla.CopyInto(c.tiles[i], t.tiles[i])
	}
	return c
}

// FrobeniusNorm returns the Frobenius norm of the whole matrix.
func (t *Matrix) FrobeniusNorm() float64 {
	var ssq float64
	for _, tl := range t.tiles {
		f := tl.FrobeniusNorm()
		ssq += f * f
	}
	return math.Sqrt(ssq)
}

// BandBidiagonalError returns the largest absolute element lying outside
// the upper band of width NB (0 ≤ j−i ≤ NB), i.e. the residual of the
// band-bidiagonal structure that GE2BND must produce.
func (t *Matrix) BandBidiagonalError() float64 {
	mx := 0.0
	for tj := 0; tj < t.Q; tj++ {
		for ti := 0; ti < t.P; ti++ {
			tl := t.Tile(ti, tj)
			for c := 0; c < tl.Cols; c++ {
				j := tj*t.NB + c
				for r := 0; r < tl.Rows; r++ {
					i := ti*t.NB + r
					if off := j - i; off >= 0 && off <= t.NB {
						continue
					}
					if v := math.Abs(tl.At(r, c)); v > mx {
						mx = v
					}
				}
			}
		}
	}
	return mx
}

// ExtractBand extracts the leading n×n upper band (with ku superdiagonals)
// of the matrix into band storage. For GE2BND output use ku = NB.
func (t *Matrix) ExtractBand(ku int) *band.Matrix {
	b := band.New(min(t.M, t.N), ku)
	t.ExtractBandInto(b)
	return b
}

// ExtractBandInto writes the leading b.N×b.N upper band of the matrix, with
// b.KU superdiagonals, into b: every element b stores.
func (t *Matrix) ExtractBandInto(b *band.Matrix) {
	for s := 0; s <= b.KU; s++ {
		for i := 0; i < b.N-s; i++ {
			b.Set(i, i+s, t.At(i, i+s))
		}
	}
}

// Equal reports whether two tiled matrices have identical shape and
// element-wise difference at most tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.M != b.M || a.N != b.N || a.NB != b.NB {
		return false
	}
	for i := range a.tiles {
		ta, tb := a.tiles[i], b.tiles[i]
		for j := 0; j < ta.Cols; j++ {
			for r := 0; r < ta.Rows; r++ {
				if d := math.Abs(ta.At(r, j) - tb.At(r, j)); d > tol {
					return false
				}
			}
		}
	}
	return true
}
