package nla

// AVX2+FMA inner loops of the Householder-apply primitives (apply.go).
// Gated by the same useAVX2 flag as dgemm8x4asm: decided once at init,
// overridable with BIDIAG_NOASM=1, identical on every worker.

//go:noescape
func dot4asm(n int, x, y0, y1, y2, y3 *float64) (s0, s1, s2, s3 float64)

//go:noescape
func axpy4asm(n int, a0, a1, a2, a3 float64, x, y0, y1, y2, y3 *float64)

//go:noescape
func gaxpy4asm(n int, a0, a1, a2, a3 float64, x0, x1, x2, x3, y *float64)

//go:noescape
func rotseqasm(m, k int, a *float64, stride int, c, s *float64)

//go:noescape
func trmvt4asm(k, n4 int, t *float64, ldt int, w *float64, ldw int)

//go:noescape
func trmvn4asm(k, n4 int, tt, w *float64, ldw int)

//go:noescape
func trmvrasm(trans bool, m, k int, t *float64, ldt int, w *float64, ldw int)

//go:noescape
func dotcolsasm(n, k int, x, b *float64, ldb int, s *float64, inc int, upper bool)

//go:noescape
func gaxpycolsasm(n, k int, a *float64, inc int, b *float64, ldb int, y *float64, mode int)

//go:noescape
func axpycolsasm(n, k int, alpha float64, a *float64, inc int, x, b *float64, ldb int)

//go:noescape
func reflectleftasm(n, k int, tau float64, v, top *float64, ldt int, b *float64, ldb int, seq bool)
