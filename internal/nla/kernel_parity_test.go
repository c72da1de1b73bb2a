package nla

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// The packed GEMM has three micro-kernels (AVX-512 16×8, AVX2 8×4, Go
// 8×4), and the T multiply of the apply kernels and the reflector sweeps
// an assembly pass each beside its Go composition. The tests below pin
// them bit for bit: the two assembly GEMM kernels against each other and
// against a scalar model of the FMA chain, the Go kernel against the
// same model with rounded products, and each fused T multiply and sweep
// pass against the composition of Dot4, Axpy4, Gaxpy4 or Scal calls it
// replaces.

// gemmLegs returns the GEMM micro-kernels this machine can run, logging
// the ones it cannot.
func gemmLegs(t *testing.T) []gemmPath {
	legs := []gemmPath{gemmGo}
	if !useAVX2 {
		t.Logf("no AVX2+FMA kernels in this process (hardware or BIDIAG_NOASM): AVX2 and AVX-512 legs skipped")
		return legs
	}
	legs = append(legs, gemmAVX2)
	if detectAVX512F() {
		legs = append(legs, gemmAVX512)
	} else {
		t.Logf("no AVX-512F with OS ZMM state: AVX-512 leg skipped")
	}
	return legs
}

// withGemm runs f with path as the packed GEMM's micro-kernel.
func withGemm(path gemmPath, f func()) {
	saved := activeGemm
	activeGemm = path
	defer func() { activeGemm = saved }()
	f()
}

// goFusesProducts reports whether the compiler may contract a*b+c into
// one FMA in this build (arm64 and the like always, amd64 from GOAMD64=v3):
// then the Go kernel's bits follow the fused model, not the rounded one.
func goFusesProducts() bool {
	if runtime.GOARCH != "amd64" {
		return true
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" && s.Value >= "v3" {
				return true
			}
		}
	}
	return false
}

// gemmModel is the packed path's arithmetic, one element at a time:
// beta first, then per KC panel an ascending chain from zero — one FMA
// per term when fused, a rounded product and an add otherwise — added to
// C as a rounded alpha·acc.
func gemmModel(fused bool, transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix, kc int) {
	m, n := c.Rows, c.Cols
	k := a.Cols
	if transA {
		k = a.Rows
	}
	opA := func(i, l int) float64 {
		if transA {
			return a.At(l, i)
		}
		return a.At(i, l)
	}
	opB := func(l, j int) float64 {
		if transB {
			return b.At(j, l)
		}
		return b.At(l, j)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			v := c.At(i, j)
			switch beta {
			case 0:
				v = 0
			case 1:
			default:
				v *= beta
			}
			if alpha != 0 {
				for pc := 0; pc < k; pc += kc {
					var acc float64
					for l := pc; l < min(pc+kc, k); l++ {
						if fused {
							acc = math.FMA(opA(i, l), opB(l, j), acc)
						} else {
							acc += float64(opA(i, l) * opB(l, j))
						}
					}
					v += float64(alpha * acc)
				}
			}
			c.Set(i, j, v)
		}
	}
}

// nanFramed returns an r×c view with leading dimension r+3 inside a
// NaN-filled allocation (rows above and below, a column either side),
// filled with normal random values.
func nanFramed(rng *rand.Rand, r, c int) (view, whole *Matrix) {
	whole = NewMatrix(r+3, c+2)
	for i := range whole.Data {
		whole.Data[i] = math.NaN()
	}
	view = whole.View(1, 1, r, c)
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			view.Set(i, j, rng.NormFloat64())
		}
	}
	return view, whole
}

// checkFrame fails if an element of whole outside view is no longer NaN.
func checkFrame(t *testing.T, name string, whole *Matrix, r, c int) {
	t.Helper()
	for j := 0; j < whole.Cols; j++ {
		for i := 0; i < whole.Rows; i++ {
			inside := i >= 1 && i <= r && j >= 1 && j <= c
			if !inside && !math.IsNaN(whole.At(i, j)) {
				t.Fatalf("%s: wrote (%d,%d) outside the %dx%d view", name, i-1, j-1, r, c)
			}
		}
	}
}

func sameBits(x, y []float64) int {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return i
		}
	}
	return -1
}

func TestGemmKernelParity(t *testing.T) {
	legs := gemmLegs(t)
	checkGo := !goFusesProducts()
	if !checkGo {
		t.Logf("this build may fuse the Go kernel's a*b+c: its bits are compared with the other kernels only through the tolerance tests")
	}
	rng := rand.New(rand.NewSource(46))
	shapes := [][3]int{ // m, n, k
		{7, 9, 40},   // small path: m < 8
		{8, 3, 40},   // small path: n < 4
		{9, 9, 3},    // small path: k < 4
		{8, 4, 4},    // one 8×4 tile, a ragged 16×8 one
		{16, 8, 5},   // one full 16×8 tile
		{33, 17, 31}, // ragged both ways
		{64, 64, 64},
		{31, 15, 257}, // k > KC: two panels
		{130, 20, 513},
		{24, 520, 9}, // n > NC
	}
	kc := DefaultBlocking.KC
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		small := m < microM || n < microN || k < gemmMinK
		for _, tr := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			transA, transB := tr[0], tr[1]
			ar, ac := m, k
			if transA {
				ar, ac = k, m
			}
			br, bc := k, n
			if transB {
				br, bc = n, k
			}
			a, _ := nanFramed(rng, ar, ac)
			b, _ := nanFramed(rng, br, bc)
			c0, _ := nanFramed(rng, m, n)
			for _, alpha := range []float64{1, -1, 0.37} {
				for _, beta := range []float64{0, 0.5, 1} {
					name := fmt.Sprintf("%dx%dx%d/tA=%v/tB=%v/α=%g/β=%g", m, n, k, transA, transB, alpha, beta)
					got := map[gemmPath][]float64{}
					for _, p := range legs {
						c, whole := nanFramed(rng, m, n)
						for j := 0; j < n; j++ {
							copy(c.Data[j*c.LD:j*c.LD+m], c0.Data[j*c0.LD:j*c0.LD+m])
						}
						withGemm(p, func() { GemmWS(transA, transB, alpha, a, b, beta, c, NewWorkspace(0)) })
						checkFrame(t, name+"/"+p.String(), whole, m, n)
						got[p] = c.Clone().Data
					}
					for _, p := range legs {
						if p == gemmGo && (!checkGo || small) {
							continue
						}
						want := c0.Clone()
						if small {
							withGemm(gemmGo, func() { GemmWS(transA, transB, alpha, a, b, beta, want, nil) })
						} else {
							gemmModel(p != gemmGo, transA, transB, alpha, a, b, beta, want, kc)
						}
						if i := sameBits(got[p], want.Data); i >= 0 {
							t.Fatalf("%s: %s kernel differs from the model at element %d: %v vs %v",
								name, p, i, got[p][i], want.Data[i])
						}
					}
				}
			}
		}
	}
}

// stageT stages Tᵀ with leading dimension k as TrmvApplyWS does.
func stageT(t *Matrix, k int) []float64 {
	tt := make([]float64, k*k)
	for i := 0; i < k; i++ {
		for l := i; l < k; l++ {
			tt[i*k+l] = t.Data[i+l*t.LD]
		}
	}
	return tt
}

// randomT returns a k×k upper-triangular T with leading dimension k+2
// whose strict lower part and padding are NaN: no T multiply may read
// them.
func randomT(rng *rand.Rand, k int) *Matrix {
	t := NewMatrix(k+2, k)
	for i := range t.Data {
		t.Data[i] = math.NaN()
	}
	for j := 0; j < k; j++ {
		for i := 0; i <= j; i++ {
			t.Set(i, j, rng.NormFloat64())
		}
	}
	return t.View(0, 0, k, k)
}

func TestTrmvFusedParity(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2+FMA kernels in this process (hardware or BIDIAG_NOASM): the fused T multiply does not run")
	}
	rng := rand.New(rand.NewSource(47))
	ks := []int{128}
	for k := 1; k <= 65; k++ {
		ks = append(ks, k)
	}
	for _, k := range ks {
		tm := randomT(rng, k)
		tt := stageT(tm, k)
		for _, n := range []int{1, 3, 4, 7, 8, 13, 64} {
			for _, trans := range []bool{false, true} {
				// Left: W (k×n) ← op(T)·W.
				w, whole := nanFramed(rng, k, n)
				ref := w.Clone()
				g := n &^ 3
				if trans {
					trmvTransGroups(k, g, tm, ref)
					trmvApplyTrans(k, n-g, tm, ref.View(0, g, k, n-g))
				} else {
					trmvNoTransGroups(k, g, tt, ref)
					trmvApplyNoTrans(k, n-g, tt, ref.View(0, g, k, n-g))
				}
				TrmvApplyWS(trans, tm, w, NewWorkspace(0))
				checkFrame(t, "TrmvApplyWS", whole, k, n)
				if i := sameBits(w.Clone().Data, ref.Data); i >= 0 {
					t.Fatalf("TrmvApplyWS(trans=%v) k=%d n=%d: fused differs from Dot4 composition at %d", trans, k, n, i)
				}

				// Right: W (n×k) ← W·op(T), n rows.
				for _, m := range []int{n, n + 32, n + 37} {
					w, whole := nanFramed(rng, m, k)
					ref := w.Clone()
					trmvRightGo(trans, m, k, tm, ref)
					TrmvApplyRight(trans, tm, w)
					checkFrame(t, "TrmvApplyRight", whole, m, k)
					if i := sameBits(w.Clone().Data, ref.Data); i >= 0 {
						t.Fatalf("TrmvApplyRight(trans=%v) m=%d k=%d: fused differs from Scal/Gaxpy4 composition at %d", trans, m, k, i)
					}
				}
			}
		}
	}
}

// nanVec returns n normal random values inside a NaN on either side.
func nanVec(rng *rand.Rand, n int) (view, whole []float64) {
	whole = make([]float64, n+2)
	whole[0], whole[n+1] = math.NaN(), math.NaN()
	for i := 1; i <= n; i++ {
		whole[i] = rng.NormFloat64()
	}
	return whole[1 : n+1], whole
}

// checkVecFrame fails if either NaN around a nanVec view was written.
func checkVecFrame(t *testing.T, name string, whole []float64) {
	t.Helper()
	if !math.IsNaN(whole[0]) || !math.IsNaN(whole[len(whole)-1]) {
		t.Fatalf("%s: wrote outside the vector", name)
	}
}

// triFramed is nanFramed with the entries Tri excludes from each column
// set back to NaN: a pass that reads one returns a NaN.
func triFramed(rng *rand.Rand, r, c int, tri Tri) (view, whole *Matrix) {
	view, whole = nanFramed(rng, r, c)
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			if (tri == Upper && i > j) || (tri == Lower && i < j) {
				view.Set(i, j, math.NaN())
			}
		}
	}
	return view, whole
}

// reflectShapes returns the (rows, columns) pairs the sweep parity test
// runs: every length 0–130 against counts of each remainder mod 4, and
// every count 0–67 against short, odd and long vectors.
func reflectShapes() [][2]int {
	var sh [][2]int
	for n := 0; n <= 130; n++ {
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, n % 68} {
			sh = append(sh, [2]int{n, k})
		}
	}
	for k := 0; k <= 67; k++ {
		for _, n := range []int{0, 1, 5, 8, 13, 64, 67, 130} {
			sh = append(sh, [2]int{n, k})
		}
	}
	return sh
}

// bandReflect lays k columns out as the band chase does: one array, the
// top entry of column c at o+c·stride and its n body rows right below,
// stride = 3n+3 (the chase's ld−1 for ku = n+1); every other entry NaN.
func bandReflect(rng *rand.Rand, n, k int) (a []float64, o, stride int) {
	stride, o = 3*n+3, 2
	a = make([]float64, o+k*stride+n+3)
	for i := range a {
		a[i] = math.NaN()
	}
	for c := 0; c < k; c++ {
		for i := 0; i <= n; i++ {
			a[o+c*stride+i] = rng.NormFloat64()
		}
	}
	return a, o, stride
}

// sameBitsNaN is sameBits that lets NaN match NaN (the untouched frame of
// the band layout).
func sameBitsNaN(x, y []float64) int {
	for i := range x {
		if math.IsNaN(x[i]) && math.IsNaN(y[i]) {
			continue
		}
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return i
		}
	}
	return -1
}

func TestReflectPassParity(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2+FMA kernels in this process (hardware or BIDIAG_NOASM): the sweep passes do not run")
	}
	legs := []bool{false}
	if detectAVX512F() {
		legs = append(legs, true)
	} else {
		t.Logf("no AVX-512F with OS ZMM state: the 512-bit row loops are not run")
	}
	saved := zmmRows
	defer func() { zmmRows = saved }()
	for _, zmm := range legs {
		zmmRows = zmm
		t.Run(fmt.Sprintf("zmm=%v", zmm), reflectParity)
	}
}

// reflectParity compares every sweep pass with its Go composition.
func reflectParity(t *testing.T) {
	// An empty vector reads no block at all, so the block may be empty.
	s := []float64{1, 2, 3, 4, 5}
	DotCols(nil, nil, 0, 5, Upper, s, 1)
	if i := sameBits(s, make([]float64, 5)); i >= 0 {
		t.Fatalf("DotCols of an empty vector: s[%d] = %v, want 0", i, s[i])
	}
	top, want := []float64{1, -2, 3, math.Copysign(0, -1), 5}, []float64{1, -2, 3, math.Copysign(0, -1), 5}
	ReflectLeft(0.75, nil, top, 1, nil, 0, 5, TailLanes)
	reflectLeftGo(0.75, nil, want, 1, nil, 0, 5, TailLanes)
	if i := sameBits(top, want); i >= 0 {
		t.Fatalf("ReflectLeft of an empty vector: top[%d] = %v, want %v", i, top[i], want[i])
	}

	rng := rand.New(rand.NewSource(48))
	for _, sh := range reflectShapes() {
		n, k := sh[0], sh[1]
		name := fmt.Sprintf("n=%d/k=%d", n, k)

		// DotCols, Full and Upper; the sums at stride 1 or, as TTMQR
		// stores them into a row of W, at stride 3.
		for _, tri := range []Tri{Full, Upper} {
			inc := 1 + 2*(n&1)
			x, _ := nanVec(rng, n)
			b, bw := triFramed(rng, n, k, tri)
			got, gw := nanVec(rng, max(k*inc, 1))
			want := append([]float64(nil), got...)
			DotCols(x, b.Data, b.LD, k, tri, got, inc)
			dotColsGo(x, b.Data, b.LD, k, tri, want, inc)
			checkFrame(t, name+"/DotCols", bw, n, k)
			checkVecFrame(t, name+"/DotCols", gw)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%s/DotCols(tri=%d): pass differs from Dot4 composition at %d: %v vs %v", name, tri, i, got[i], want[i])
			}
		}

		// GaxpyCols, every triangle with TailLanes and Full with TailSeq.
		for _, m := range []struct {
			tri  Tri
			tail Tail
		}{{Full, TailLanes}, {Upper, TailLanes}, {Lower, TailLanes}, {Full, TailSeq}} {
			inc := 1 + 2*(k&1)
			a, _ := nanVec(rng, k*inc)
			b, bw := triFramed(rng, n, k, m.tri)
			got, gw := nanVec(rng, n)
			want := append([]float64(nil), got...)
			GaxpyCols(a, inc, b.Data, b.LD, k, m.tri, m.tail, got)
			gaxpyColsGo(a, inc, b.Data, b.LD, k, m.tri, m.tail, want)
			checkFrame(t, name+"/GaxpyCols", bw, n, k)
			checkVecFrame(t, name+"/GaxpyCols", gw)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%s/GaxpyCols(tri=%d, tail=%d): pass differs from Gaxpy4 composition at %d: %v vs %v", name, m.tri, m.tail, i, got[i], want[i])
			}
		}

		// AxpyCols, with the factor kernels' alpha = 1 and the chase's tau.
		for _, alpha := range []float64{1, rng.NormFloat64()} {
			inc := 1 + 2*(n&1)
			a, _ := nanVec(rng, k*inc)
			x, _ := nanVec(rng, n)
			got, gw := nanFramed(rng, n, k)
			want := got.Clone()
			AxpyCols(alpha, a, inc, x, got.Data, got.LD, k)
			axpyColsGo(alpha, a, inc, x, want.Data, want.LD, k)
			checkFrame(t, name+"/AxpyCols", gw, n, k)
			if i := sameBits(got.Clone().Data, want.Data); i >= 0 {
				t.Fatalf("%s/AxpyCols(alpha=%v): pass differs from Axpy4 composition at %d", name, alpha, i)
			}
		}

		// ReflectLeft in both layouts, both tails, and tau = 0.
		for _, tail := range []Tail{TailLanes, TailSeq} {
			for _, tau := range []float64{1 + rng.Float64(), 0} {
				v, _ := nanVec(rng, n)
				// Tile: the top row is row 2 of a 5×k R, the body an n×k tile.
				top, tw := nanFramed(rng, 5, k)
				body, bw := nanFramed(rng, n, k)
				topRef, bodyRef := top.Clone(), body.Clone()
				if k > 0 {
					ReflectLeft(tau, v, top.Data[2:], top.LD, body.Data, body.LD, k, tail)
					reflectLeftGo(tau, v, topRef.Data[2:], topRef.LD, bodyRef.Data, bodyRef.LD, k, tail)
				}
				checkFrame(t, name+"/ReflectLeft", tw, 5, k)
				checkFrame(t, name+"/ReflectLeft", bw, n, k)
				if i := sameBits(top.Clone().Data, topRef.Data); i >= 0 {
					t.Fatalf("%s/ReflectLeft(tail=%d, tau=%v): top row differs at %d", name, tail, tau, i)
				}
				if i := sameBits(body.Clone().Data, bodyRef.Data); i >= 0 {
					t.Fatalf("%s/ReflectLeft(tail=%d, tau=%v): body differs at %d", name, tail, tau, i)
				}

				// Band: top and body in one array at stride ld−1.
				a, o, stride := bandReflect(rng, n, k)
				ref := append([]float64(nil), a...)
				if k > 0 {
					ReflectLeft(tau, v, a[o:], stride, a[o+1:], stride, k, tail)
					reflectLeftGo(tau, v, ref[o:], stride, ref[o+1:], stride, k, tail)
				}
				if i := sameBitsNaN(a, ref); i >= 0 {
					t.Fatalf("%s/ReflectLeft(band, tail=%d, tau=%v): differs at %d: %v vs %v", name, tail, tau, i, a[i], ref[i])
				}
				for i, x := range a {
					c, r := (i-o)/stride, (i-o)%stride
					if inside := i >= o && c < k && r <= n; !inside && !math.IsNaN(x) {
						t.Fatalf("%s/ReflectLeft(band): wrote %d outside the block", name, i)
					}
				}
			}
		}
	}
}
