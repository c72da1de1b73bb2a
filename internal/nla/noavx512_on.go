//go:build noavx512

package nla

// forceAVX2Gemm keeps the packed GEMM on its AVX2 kernel on AVX-512
// hardware under go test -tags noavx512, a test harness that runs the
// golden and parity suites through the 8×4 kernel on any amd64 machine.
const forceAVX2Gemm = true
