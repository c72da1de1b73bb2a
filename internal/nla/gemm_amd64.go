package nla

import "os"

// useAVX2 gates the AVX2+FMA assembly kernels. It is decided once at
// init; every executor worker therefore runs the same kernel, which keeps
// parallel and distributed results bitwise-identical to RunSequential.
var useAVX2 = detectAVX2FMA()

// activeGemm is the packed GEMM's micro-kernel, decided once at init:
// AVX-512F where the CPU has it and the OS saves ZMM state, else the
// AVX2 kernel where useAVX2 holds, else the portable Go kernel. The
// noavx512 build tag (forceAVX2Gemm) keeps the AVX2 kernel on AVX-512
// hardware so its golden and parity suites still run there.
var activeGemm = pickGemm()

func pickGemm() gemmPath {
	switch {
	case !useAVX2:
		return gemmGo
	case !forceAVX2Gemm && detectAVX512F():
		return gemmAVX512
	}
	return gemmAVX2
}

//go:noescape
func dgemm8x4asm(kc int, ap, bp, acc *float64)

//go:noescape
func dgemm16x8asm(kc int, ap, bp, acc *float64)

//go:noescape
func dgemm16x8addasm(kc int, ap, bp, c *float64, ldc int, alpha float64)

//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

// detectAVX2FMA reports whether the CPU supports AVX2 and FMA and the OS
// saves YMM state (CPUID leaves 1 and 7, XGETBV XCR0 bits 1-2). Setting
// BIDIAG_NOASM=1 (any value but "" and "0") forces the portable pure-Go
// micro-kernel regardless of the hardware, so CI can exercise the
// fallback path even on AVX2 runners.
func detectAVX2FMA() bool {
	if v := os.Getenv("BIDIAG_NOASM"); v != "" && v != "0" {
		return false
	}
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	_, _, ecx1, _ := cpuidex(1, 0)
	if ecx1&fma == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// detectAVX512F reports whether the CPU supports AVX-512F (CPUID leaf 7
// EBX bit 16) and the OS saves the opmask and all 32 ZMM registers
// (XCR0 bits 1, 2, 5, 6 and 7: 0xE6). Call it only where detectAVX2FMA
// holds, which checked that leaf 7 exists and that XGETBV may run.
func detectAVX512F() bool {
	if lo, _ := xgetbv0(); lo&0xE6 != 0xE6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<16) != 0
}
