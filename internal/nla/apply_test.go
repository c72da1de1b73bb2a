package nla

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The apply primitives have two implementations: the dispatch path
// (AVX2+FMA assembly when useAVX2) and the pure-Go fallbacks. On AVX2
// hardware the tests below compare the two directly in one process;
// under BIDIAG_NOASM=1 (the CI fallback leg) the dispatch path IS the
// fallback and the comparisons pin it against the reference
// formulations instead.

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// relClose compares under a relative-to-scale tolerance: the asm kernels
// reassociate sums (8 chains + 4-wide tail), so bitwise equality with the
// sequential fallback is not expected — agreement to ~1e-13·scale is.
func relClose(a, b, scale float64) bool {
	tol := 1e-12 * math.Max(1, scale)
	return math.Abs(a-b) <= tol
}

func TestDot4MatchesFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 31, 63, 64, 100, 257} {
		x := randVec(rng, n)
		y0, y1, y2, y3 := randVec(rng, n), randVec(rng, n), randVec(rng, n), randVec(rng, n)
		s0, s1, s2, s3 := Dot4(x, y0, y1, y2, y3)
		r0, r1, r2, r3 := dot4go(x, y0, y1, y2, y3)
		scale := float64(n)
		for i, pair := range [][2]float64{{s0, r0}, {s1, r1}, {s2, r2}, {s3, r3}} {
			if !relClose(pair[0], pair[1], scale) {
				t.Fatalf("n=%d chain %d: dispatch %g vs fallback %g", n, i, pair[0], pair[1])
			}
		}
	}
}

func TestAxpy4MatchesFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 3, 4, 6, 8, 11, 16, 29, 64, 97, 256} {
		a := [4]float64{rng.NormFloat64(), 0, rng.NormFloat64(), rng.NormFloat64()} // a1=0: no-skip contract
		x := randVec(rng, n)
		got := [4][]float64{randVec(rng, n), randVec(rng, n), randVec(rng, n), randVec(rng, n)}
		want := [4][]float64{}
		for q := range want {
			want[q] = append([]float64(nil), got[q]...)
		}
		Axpy4(a[0], a[1], a[2], a[3], x, got[0], got[1], got[2], got[3])
		axpy4go(a[0], a[1], a[2], a[3], x, want[0], want[1], want[2], want[3])
		for q := range got {
			for i := range got[q] {
				if !relClose(got[q][i], want[q][i], 1) {
					t.Fatalf("n=%d y%d[%d]: dispatch %g vs fallback %g", n, q, i, got[q][i], want[q][i])
				}
			}
		}
	}
}

func TestGaxpy4MatchesFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{0, 1, 2, 4, 5, 8, 13, 16, 33, 64, 127, 256} {
		a := [4]float64{rng.NormFloat64(), rng.NormFloat64(), 0, rng.NormFloat64()}
		xs := [4][]float64{randVec(rng, n), randVec(rng, n), randVec(rng, n), randVec(rng, n)}
		got := randVec(rng, n)
		want := append([]float64(nil), got...)
		Gaxpy4(a[0], a[1], a[2], a[3], xs[0], xs[1], xs[2], xs[3], got)
		gaxpy4go(a[0], a[1], a[2], a[3], xs[0], xs[1], xs[2], xs[3], want)
		for i := range got {
			if !relClose(got[i], want[i], 4) {
				t.Fatalf("n=%d y[%d]: dispatch %g vs fallback %g", n, i, got[i], want[i])
			}
		}
	}
}

// refRotSeq is the definition of RotSeq, one element at a time.
func refRotSeq(m int, a []float64, base, stride int, c, s []float64) {
	for t := range c {
		for i := 0; i < m; i++ {
			x, y := a[base+t*stride+i], a[base+(t+1)*stride+i]
			a[base+t*stride+i] = c[t]*x + s[t]*y
			a[base+(t+1)*stride+i] = c[t]*y - s[t]*x
		}
	}
}

// TestRotSeqMatchesFallback fuzzes the rotation sweep over row counts
// that hit the 16-, 4- and 1-row paths and their mixes, sweep lengths
// from none to longer than the block is tall, padded leading dimensions
// and both walking directions, against the portable form and the
// definition. The rotations are exact (c² + s² = 1), so the columns keep
// their scale and the FMA contractions differ in the last bits only.
func TestRotSeqMatchesFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, m := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 20, 31, 32, 35, 64, 100} {
		for _, k := range []int{0, 1, 2, 3, 9, 40} {
			for _, pad := range []int{0, 3} {
				for _, down := range []bool{false, true} {
					ld := m + pad
					a := randVec(rng, ld*(k+1)+1)
					c, s := make([]float64, k), make([]float64, k)
					for i := range c {
						c[i], s[i] = math.Sincos(2 * math.Pi * rng.Float64())
					}
					base, stride := 0, ld
					if down {
						base, stride = k*ld, -ld
					}
					got := append([]float64(nil), a...)
					portable := append([]float64(nil), a...)
					want := append([]float64(nil), a...)
					RotSeq(m, got, base, stride, c, s)
					rotseqgo(m, portable, base, stride, c, s)
					refRotSeq(m, want, base, stride, c, s)
					for i := range want {
						if !relClose(got[i], want[i], float64(k)) || portable[i] != want[i] {
							t.Fatalf("m=%d k=%d ld=%d down=%v: a[%d] dispatch %g, portable %g, definition %g",
								m, k, ld, down, i, got[i], portable[i], want[i])
						}
					}
				}
			}
		}
	}
}

// randUpperT fills a k×k upper-triangular matrix (strict lower left as
// written garbage to catch reads outside the triangle).
func randUpperT(rng *rand.Rand, k int) *Matrix {
	t := NewMatrix(k, k)
	for j := 0; j < k; j++ {
		for i := 0; i <= j; i++ {
			t.Set(i, j, rng.NormFloat64())
		}
		for i := j + 1; i < k; i++ {
			t.Set(i, j, math.NaN()) // must never be read
		}
	}
	return t
}

// refTrmvLeft is the dense reference for op(T)·W with T upper triangular.
func refTrmvLeft(trans bool, tm, w *Matrix) *Matrix {
	k, n := w.Rows, w.Cols
	out := NewMatrix(k, n)
	for j := 0; j < n; j++ {
		for i := 0; i < k; i++ {
			var s float64
			for l := 0; l < k; l++ {
				var tv float64
				if trans {
					if i >= l {
						tv = tm.At(l, i)
					}
				} else if l >= i {
					tv = tm.At(i, l)
				}
				s += tv * w.At(l, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// refTrmvRight is the dense reference for W·op(T): op(T) = T when trans.
func refTrmvRight(trans bool, tm, w *Matrix) *Matrix {
	m, k := w.Rows, w.Cols
	out := NewMatrix(m, k)
	for j := 0; j < k; j++ {
		for i := 0; i < m; i++ {
			var s float64
			for l := 0; l < k; l++ {
				var tv float64
				if trans {
					if l <= j {
						tv = tm.At(l, j)
					}
				} else if l >= j {
					tv = tm.At(j, l)
				}
				s += w.At(i, l) * tv
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestTrmvApplyWSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ws := NewWorkspace(0)
	for _, k := range []int{0, 1, 2, 3, 4, 5, 8, 13, 32, 48} {
		for _, n := range []int{0, 1, 2, 3, 4, 7, 8, 17, 64} {
			for _, trans := range []bool{true, false} {
				tm := randUpperT(rng, k)
				w := NewMatrix(max(k, 1), max(n, 1)).View(0, 0, k, n)
				for j := 0; j < n; j++ {
					for i := 0; i < k; i++ {
						w.Set(i, j, rng.NormFloat64())
					}
				}
				want := refTrmvLeft(trans, tm, w)
				TrmvApplyWS(trans, tm, w, ws)
				for j := 0; j < n; j++ {
					for i := 0; i < k; i++ {
						if !relClose(w.At(i, j), want.At(i, j), float64(k)) {
							t.Fatalf("k=%d n=%d trans=%v: W(%d,%d)=%g want %g",
								k, n, trans, i, j, w.At(i, j), want.At(i, j))
						}
					}
				}
			}
		}
	}
}

func TestTrmvApplyRightMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, m := range []int{0, 1, 2, 3, 5, 8, 16, 33, 64} {
		for _, k := range []int{0, 1, 2, 3, 4, 6, 8, 13, 48} {
			for _, trans := range []bool{true, false} {
				tm := randUpperT(rng, k)
				w := NewMatrix(max(m, 1), max(k, 1)).View(0, 0, m, k)
				for j := 0; j < k; j++ {
					for i := 0; i < m; i++ {
						w.Set(i, j, rng.NormFloat64())
					}
				}
				want := refTrmvRight(trans, tm, w)
				TrmvApplyRight(trans, tm, w)
				for j := 0; j < k; j++ {
					for i := 0; i < m; i++ {
						if !relClose(w.At(i, j), want.At(i, j), float64(k)) {
							t.Fatalf("m=%d k=%d trans=%v: W(%d,%d)=%g want %g",
								m, k, trans, i, j, w.At(i, j), want.At(i, j))
						}
					}
				}
			}
		}
	}
}

// TestApplyPrimitivesFuzz drives ragged shapes through every primitive,
// cross-checking the dispatch path against the fallbacks and the Trmv
// drivers against the dense references.
func TestApplyPrimitivesFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ws := NewWorkspace(0)
	for it := 0; it < 300; it++ {
		n := rng.Intn(70)
		x := randVec(rng, n)
		y0, y1, y2, y3 := randVec(rng, n), randVec(rng, n), randVec(rng, n), randVec(rng, n)
		s0, s1, s2, s3 := Dot4(x, y0, y1, y2, y3)
		r0, r1, r2, r3 := dot4go(x, y0, y1, y2, y3)
		for i, pair := range [][2]float64{{s0, r0}, {s1, r1}, {s2, r2}, {s3, r3}} {
			if !relClose(pair[0], pair[1], float64(n)) {
				t.Fatalf("it=%d Dot4 chain %d: %g vs %g", it, i, pair[0], pair[1])
			}
		}

		k := rng.Intn(33)
		cols := rng.Intn(40)
		tm := randUpperT(rng, k)
		w := NewMatrix(max(k, 1), max(cols, 1)).View(0, 0, k, cols)
		for j := 0; j < cols; j++ {
			for i := 0; i < k; i++ {
				w.Set(i, j, rng.NormFloat64())
			}
		}
		trans := rng.Intn(2) == 0
		want := refTrmvLeft(trans, tm, w)
		TrmvApplyWS(trans, tm, w, ws)
		for j := 0; j < cols; j++ {
			for i := 0; i < k; i++ {
				if !relClose(w.At(i, j), want.At(i, j), float64(k)) {
					t.Fatalf("it=%d Trmv k=%d n=%d trans=%v mismatch at (%d,%d)", it, k, cols, trans, i, j)
				}
			}
		}
	}
}

// The apply primitives and Trmv drivers must be allocation-free on a
// warm workspace: they sit inside every apply kernel's inner loop.
func TestApplyPrimitivesZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const n = 96
	x := randVec(rng, n)
	y0, y1, y2, y3 := randVec(rng, n), randVec(rng, n), randVec(rng, n), randVec(rng, n)
	var sink float64
	if a := testing.AllocsPerRun(50, func() {
		s0, s1, s2, s3 := Dot4(x, y0, y1, y2, y3)
		sink += s0 + s1 + s2 + s3
		Axpy4(0.5, -1, 2, 0, x, y0, y1, y2, y3)
		Gaxpy4(0.5, -1, 2, 0, y0, y1, y2, y3, x)
		RotSeq(n/4, x, 0, n/4, y0[:3], y1[:3])
	}); a != 0 {
		t.Fatalf("vector primitives allocate: %v allocs/op", a)
	}
	_ = sink

	const k = 48
	tm := randUpperT(rng, k)
	w := NewMatrix(k, n)
	for j := 0; j < n; j++ {
		for i := 0; i < k; i++ {
			w.Set(i, j, rng.NormFloat64())
		}
	}
	ws := NewWorkspace(TrmvApplyScratch(k))
	for _, trans := range []bool{true, false} {
		if a := testing.AllocsPerRun(20, func() {
			TrmvApplyWS(trans, tm, w, ws)
			TrmvApplyRight(trans, tm, w.View(0, 0, k, k))
		}); a != 0 {
			t.Fatalf("trans=%v: Trmv drivers allocate: %v allocs/op", trans, a)
		}
	}
	if g := ws.Grows(); g != 0 {
		t.Fatalf("warm workspace grew %d times; TrmvApplyScratch is undersized", g)
	}

	// The reflector sweeps, on w's first 47 columns (three left over).
	s := randVec(rng, k)
	if a := testing.AllocsPerRun(20, func() {
		DotCols(x[:k], w.Data, w.LD, 47, Upper, s, 1)
		GaxpyCols(s, 1, w.Data, w.LD, 47, Lower, TailLanes, y0[:k])
		AxpyCols(0.5, s, 1, y1[:k], w.Data, w.LD, 47)
		ReflectLeft(0.5, x[1:k], s, 1, w.Data[1:], w.LD, 47, TailSeq)
		ReflectLeft(0.5, x[1:k], s, 1, w.Data[1:], w.LD, 47, TailLanes)
	}); a != 0 {
		t.Fatalf("reflector sweeps allocate: %v allocs/op", a)
	}
}

func BenchmarkDot4(b *testing.B) {
	rng := rand.New(rand.NewSource(48))
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := randVec(rng, n)
			y0, y1, y2, y3 := randVec(rng, n), randVec(rng, n), randVec(rng, n), randVec(rng, n)
			var sink float64
			b.SetBytes(int64(5 * 8 * n))
			for i := 0; i < b.N; i++ {
				s0, s1, s2, s3 := Dot4(x, y0, y1, y2, y3)
				sink += s0 + s1 + s2 + s3
			}
			_ = sink
		})
	}
}

// BenchmarkRotSeq times one sweep of 255 rotations over a 256-column
// block of the given height, dispatch path against the portable one, and
// reports the cost per rotated element pair.
func BenchmarkRotSeq(b *testing.B) {
	rng := rand.New(rand.NewSource(49))
	const k = 255
	c, s := make([]float64, k), make([]float64, k)
	for i := range c {
		c[i], s[i] = math.Sincos(2 * math.Pi * rng.Float64())
	}
	for _, m := range []int{16, 64, 256} {
		ld := m + 8
		a := randVec(rng, ld*(k+1))
		for _, impl := range []struct {
			name string
			f    func(m int, a []float64, base, stride int, c, s []float64)
		}{{"dispatch", RotSeq}, {"portable", rotseqgo}} {
			b.Run(fmt.Sprintf("m=%d/%s", m, impl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.f(m, a, 0, ld, c, s)
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(m*k), "ns/elem-rot")
			})
		}
	}
}
