//go:build !noavx512

package nla

const forceAVX2Gemm = false
