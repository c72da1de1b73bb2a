package nla

import "testing"

// BIDIAG_NOASM must force the pure-Go micro-kernel: CI reruns the nla and
// kernels tests with it set so the portable GEMM path is exercised on
// AVX2 hardware too. (The package-level useAVX2 is decided at init, so
// the override takes effect for whole processes, which is exactly how the
// CI leg uses it; here we pin the detector itself.)
func TestNoASMEnvOverride(t *testing.T) {
	t.Setenv("BIDIAG_NOASM", "")
	hw := detectAVX2FMA()
	t.Setenv("BIDIAG_NOASM", "1")
	if detectAVX2FMA() {
		t.Fatalf("BIDIAG_NOASM=1 must disable the assembly micro-kernel")
	}
	t.Setenv("BIDIAG_NOASM", "0")
	if got := detectAVX2FMA(); got != hw {
		t.Fatalf("BIDIAG_NOASM=0 must behave like unset: got %v, hardware %v", got, hw)
	}
}

// The packed GEMM takes the AVX-512 kernel exactly where the hardware
// has it, asm is allowed and the noavx512 harness tag is off.
func TestGemmDispatch(t *testing.T) {
	want := gemmGo
	switch {
	case !useAVX2:
	case !forceAVX2Gemm && detectAVX512F():
		want = gemmAVX512
	default:
		want = gemmAVX2
	}
	if activeGemm != want {
		t.Fatalf("active GEMM kernel %s, want %s (avx2 %v, noavx512 tag %v)", activeGemm, want, useAVX2, forceAVX2Gemm)
	}
	t.Logf("GEMM kernel: %s", GemmKernel())
}
