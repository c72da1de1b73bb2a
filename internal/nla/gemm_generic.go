//go:build !amd64

package nla

// Non-amd64 builds always use the portable micro-kernel.
const useAVX2 = false

var activeGemm = gemmGo

func detectAVX512F() bool { return false }

func dgemm8x4asm(kc int, ap, bp, acc *float64) {
	panic("nla: assembly micro-kernel not available on this architecture")
}

func dgemm16x8asm(kc int, ap, bp, acc *float64) {
	panic("nla: assembly micro-kernel not available on this architecture")
}

func dgemm16x8addasm(kc int, ap, bp, c *float64, ldc int, alpha float64) {
	panic("nla: assembly micro-kernel not available on this architecture")
}
