package kernels

import (
	"math/rand"
	"testing"

	"github.com/tiled-la/bidiag/internal/nla"
)

// kernelCases is BenchCases on a fixed seed.
func kernelCases(nb int) []BenchCase { return BenchCases(rand.New(rand.NewSource(3)), nb) }

// The executors hand every worker one warm, max-sized workspace; with that
// in place no kernel may allocate on the hot path. These tests pin the
// contract: AllocsPerRun == 0 for every QR/LQ kernel, factor and apply,
// run from a workspace of exactly ScratchSize elements — which therefore
// never grows, and whose capacity is still ScratchSize afterwards.
func TestKernelsZeroAlloc(t *testing.T) {
	const nb = 48
	for _, tc := range kernelCases(nb) {
		t.Run(tc.Kind.String(), func(t *testing.T) {
			size := ScratchSize(tc.Kind, nb, nb, nb)
			ws := nla.NewWorkspace(size)
			tc.Invoke(ws) // warm
			if n := testing.AllocsPerRun(10, func() { tc.Invoke(ws) }); n != 0 {
				t.Fatalf("%s allocated %v times per run with a warm workspace", tc.Kind, n)
			}
			if ws.Grows() != 0 || ws.Cap() != size {
				t.Fatalf("%s: workspace of ScratchSize = %d elements grew %d times to %d",
					tc.Kind, size, ws.Grows(), ws.Cap())
			}
		})
	}
}

// The factor kernels check out a vector or two, never a panel: at most
// m+n elements whatever the tile shape, which on full tiles is far below
// every apply kernel's W panel — a factor task does not set
// Graph.ScratchElems.
func TestFactorScratchIsVectors(t *testing.T) {
	factors := []Kind{GEQRTKind, TSQRTKind, TTQRTKind, GELQTKind, TSLQTKind, TTLQTKind}
	applies := []Kind{UNMQRKind, TSMQRKind, TTMQRKind, UNMLQKind, TSMLQKind, TTMLQKind}
	for _, dims := range [][2]int{{1, 1}, {3, 64}, {64, 3}, {64, 64}, {65, 128}, {128, 65}} {
		m, n := dims[0], dims[1]
		for _, f := range factors {
			if got := ScratchSize(f, m, n, 0); got > m+n {
				t.Errorf("%s %dx%d: scratch %d > m+n", f, m, n, got)
			}
			for _, a := range applies {
				if m == n && m > 2 && ScratchSize(f, m, n, 0) >= ScratchSize(a, m, n, n) {
					t.Errorf("%s needs as much scratch as %s on %dx%d tiles", f, a, m, n)
				}
			}
		}
	}
}

// The left-apply kernels take a second scratch checkout (the k×k Tᵀ
// staging in nla.TrmvApplyWS) only on the trans=false (apply-Q) path, so
// the 0-alloc contract is pinned separately for it.
func TestApplyKernelsZeroAllocNoTrans(t *testing.T) {
	const nb = 48
	rng := rand.New(rand.NewSource(5))
	mk := func() *nla.Matrix { return nla.RandomMatrix(rng, nb, nb) }
	tm := nla.NewMatrix(nb, nb)
	tau := make([]float64, nb)

	a := mk()
	GEQRT(a, tm, tau, nil)
	c := mk()
	cases := []BenchCase{
		{Kind: UNMQRKind, Run: func(ws *nla.Workspace) { UNMQR(false, nb, a, tm, c, ws) }},
	}
	a1, a2 := mk(), mk()
	for j := 0; j < nb; j++ {
		for i := j + 1; i < nb; i++ {
			a1.Set(i, j, 0)
		}
	}
	tm2 := nla.NewMatrix(nb, nb)
	TSQRT(a1, a2, tm2, tau, nil)
	c1, c2 := mk(), mk()
	cases = append(cases, BenchCase{Kind: TSMQRKind, Run: func(ws *nla.Workspace) { TSMQR(false, nb, a2, tm2, c1, c2, ws) }})

	for _, tc := range cases {
		t.Run(tc.Kind.String()+"/notrans", func(t *testing.T) {
			ws := nla.NewWorkspace(ScratchSize(tc.Kind, nb, nb, nb))
			tc.Run(ws) // warm
			if n := testing.AllocsPerRun(10, func() { tc.Run(ws) }); n != 0 {
				t.Fatalf("%s allocated %v times per run with a warm workspace", tc.Kind, n)
			}
			if ws.Grows() != 0 {
				t.Fatalf("%s: workspace sized by ScratchSize grew %d times", tc.Kind, ws.Grows())
			}
		})
	}
}

// BenchmarkKernels measures the steady-state per-kernel rates with a warm
// per-worker workspace — the configuration the executors run. Allocs/op
// must be 0 for every kernel.
func BenchmarkKernels(b *testing.B) {
	const nb = 128
	for _, tc := range kernelCases(nb) {
		ws := nla.NewWorkspace(ScratchSize(tc.Kind, nb, nb, nb))
		tc.Invoke(ws) // warm
		b.Run(tc.Kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.Invoke(ws)
			}
		})
	}
}
