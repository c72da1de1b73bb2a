package kernels

import (
	"github.com/tiled-la/bidiag/internal/nla"
)

// Every kernel declares its scratch requirement up front and borrows the
// memory from a caller-owned *nla.Workspace, so the executors can give
// each worker one max-sized arena and run every task allocation-free.
// ScratchSize is the sizing contract; the (m, n, k) arguments mirror the
// shape arguments of the kernel itself:
//
//	GEQRT  m, n       dimensions of the factored tile (k ignored)
//	UNMQR  m, n, k    C is m×n, k reflectors
//	TSQRT  m, n       a2 is m×n (k ignored)
//	TSMQR  m, n, k    c2 is m×n, k reflectors
//	TTQRT  m, n       a1 is n×n, a2 m×n (k ignored)
//	TTMQR  m, n, k    c2 is m×n, k reflectors
//	GELQT  m, n       dimensions of the factored tile
//	UNMLQ  m, n, k    C is m×n, k reflectors
//	TSLQT  m, n       a2 is m×n
//	TSMLQ  m, n, k    c2 is m×n, k reflectors
//	TTLQT  m, n       a1 is m×m, a2 m×n
//	TTMLQ  m, n, k    c2 is m×n, k reflectors
//	LACPY, LASET      no scratch
//
// The returned size is in float64 elements and includes the pack buffers
// of every GemmWS call the kernel makes under the given blocking, plus
// the k×k transpose staging nla.TrmvApplyWS checks out in the left-apply
// kernels' no-trans (Q, not Qᵀ) variant.
func ScratchSizeFor(kind Kind, m, n, k int, bl nla.Blocking) int {
	switch kind {
	case GEQRTKind:
		return n
	case UNMQRKind:
		return k*n + max(
			nla.GemmScratchFor(bl, k, n, m-k),
			nla.GemmScratchFor(bl, m-k, n, k),
			nla.TrmvApplyScratch(k),
		)
	case TSQRTKind:
		return n
	case TSMQRKind:
		return k*n + max(
			nla.GemmScratchFor(bl, k, n, m),
			nla.GemmScratchFor(bl, m, n, k),
			nla.TrmvApplyScratch(k),
		)
	case TTQRTKind:
		return n
	case TTMQRKind:
		return k*n + nla.TrmvApplyScratch(k)
	case GELQTKind:
		return n + m
	case UNMLQKind:
		return m*k + max(
			nla.GemmScratchFor(bl, m, k, n-k),
			nla.GemmScratchFor(bl, m, n-k, k),
		)
	case TSLQTKind:
		return n + m
	case TSMLQKind:
		return m*k + max(
			nla.GemmScratchFor(bl, m, k, n),
			nla.GemmScratchFor(bl, m, n, k),
		)
	case TTLQTKind:
		return n + m
	case TTMLQKind:
		return m * k
	}
	return 0 // LACPY, LASET, unknown
}

// ScratchSize is ScratchSizeFor under the default GEMM blocking.
func ScratchSize(kind Kind, m, n, k int) int {
	return ScratchSizeFor(kind, m, n, k, nla.Blocking{})
}

// grab resolves the fallback workspace (kernels accept nil for callers
// that do not manage scratch) and records the checkout level the kernel
// releases on exit.
func grab(ws *nla.Workspace) (*nla.Workspace, nla.WorkspaceMark) {
	if ws == nil {
		ws = nla.NewWorkspace(0)
	}
	return ws, ws.Mark()
}
