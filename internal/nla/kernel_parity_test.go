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
// 8×4) and the T multiply of the apply kernels a fused assembly form
// beside its Go composition. The tests below pin them bit for bit: the
// two assembly GEMM kernels against each other and against a scalar
// model of the FMA chain, the Go kernel against the same model with
// rounded products, and each fused T multiply against the composition
// of Dot4 or Scal/Gaxpy4 calls it replaces.

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
