//go:build !amd64

package nla

// Non-amd64 builds always use the portable apply primitives; these stubs
// are unreachable because useAVX2 is the constant false.

func dot4asm(n int, x, y0, y1, y2, y3 *float64) (s0, s1, s2, s3 float64) {
	panic("nla: assembly micro-kernel not available on this architecture")
}

func axpy4asm(n int, a0, a1, a2, a3 float64, x, y0, y1, y2, y3 *float64) {
	panic("nla: assembly micro-kernel not available on this architecture")
}

func gaxpy4asm(n int, a0, a1, a2, a3 float64, x0, x1, x2, x3, y *float64) {
	panic("nla: assembly micro-kernel not available on this architecture")
}

func rotseqasm(m, k int, a *float64, stride int, c, s *float64) {
	panic("nla: assembly micro-kernel not available on this architecture")
}

func trmvt4asm(k, n4 int, t *float64, ldt int, w *float64, ldw int) {
	panic("nla: assembly micro-kernel not available on this architecture")
}

func trmvn4asm(k, n4 int, tt, w *float64, ldw int) {
	panic("nla: assembly micro-kernel not available on this architecture")
}

func trmvrasm(trans bool, m, k int, t *float64, ldt int, w *float64, ldw int) {
	panic("nla: assembly micro-kernel not available on this architecture")
}

func dotcolsasm(n, k int, x, b *float64, ldb int, s *float64, inc int, upper bool) {
	panic("nla: assembly micro-kernel not available on this architecture")
}

func gaxpycolsasm(n, k int, a *float64, inc int, b *float64, ldb int, y *float64, mode int) {
	panic("nla: assembly micro-kernel not available on this architecture")
}

func axpycolsasm(n, k int, alpha float64, a *float64, inc int, x, b *float64, ldb int) {
	panic("nla: assembly micro-kernel not available on this architecture")
}

func reflectleftasm(n, k int, tau float64, v, top *float64, ldt int, b *float64, ldb int, seq bool) {
	panic("nla: assembly micro-kernel not available on this architecture")
}
