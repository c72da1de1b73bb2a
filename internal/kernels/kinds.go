package kernels

// Kind enumerates the task kernels of the tiled algorithms, including the
// auxiliary data-movement kernels used by R-bidiagonalization.
type Kind int

const (
	GEQRTKind Kind = iota
	UNMQRKind
	TSQRTKind
	TSMQRKind
	TTQRTKind
	TTMQRKind
	GELQTKind
	UNMLQKind
	TSLQTKind
	TSMLQKind
	TTLQTKind
	TTMLQKind
	// LACPYKind copies a tile (used when extracting the R factor in
	// R-bidiagonalization). It costs no flops and has zero weight in the
	// critical-path model, matching the paper's accounting.
	LACPYKind
	// LASETKind zeroes a tile. Zero weight, like LACPYKind.
	LASETKind
	// BRDSEGKind is one task of the BND2BD band reduction
	// (internal/band): a caravan of Householder bulge-chase sweeps
	// advanced through a few rounds. It is not a Table I kernel — its
	// cost is data-size dependent, so each task carries its own modeled
	// weight and the table entry is 0.
	BRDSEGKind
	// BANDCPKind drains the band region of a finished stage-1 tile into
	// the working storage of the second stage (the cross-stage adapter of
	// the fused pipeline, internal/pipeline). Like LACPY it moves data
	// without flops and carries zero critical-path weight, so fusing the
	// stages never lengthens the modeled critical path by itself.
	BANDCPKind
	// BRDQPKind forms one row panel of Q₂ or P₂, the accumulated
	// transformations of the BND2BD stage, by streaming the reflector
	// log of the chase over it (internal/core/vectors.go). Like BRDSEG
	// its cost depends on the data size and rides on the task.
	BRDQPKind
	// BDROTKind applies one batch of the bidiagonal QR iteration's plane
	// rotations to one row panel of the singular vectors.
	BDROTKind
	// NumKinds sizes tables indexed by Kind.
	NumKinds
)

var kindNames = [...]string{
	"GEQRT", "UNMQR", "TSQRT", "TSMQR", "TTQRT", "TTMQR",
	"GELQT", "UNMLQ", "TSLQT", "TSMLQ", "TTLQT", "TTMLQ",
	"LACPY", "LASET", "BRDSEG", "BANDCP", "BRDQP", "BDROT",
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "UNKNOWN"
	}
	return kindNames[k]
}

// tableI holds the kernel costs of Table I in units of nb³/3 flops.
var tableI = [NumKinds]float64{
	GEQRTKind: 4, UNMQRKind: 6, TSQRTKind: 6, TSMQRKind: 12, TTQRTKind: 2, TTMQRKind: 6,
	GELQTKind: 4, UNMLQKind: 6, TSLQTKind: 6, TSMLQKind: 12, TTLQTKind: 2, TTMLQKind: 6,
	LACPYKind: 0, LASETKind: 0, BRDSEGKind: 0, BANDCPKind: 0, BRDQPKind: 0, BDROTKind: 0,
}

// Weight returns the Table I critical-path weight of kernel k, in units of
// nb³/3 floating-point operations.
func Weight(k Kind) float64 { return tableI[k] }

// FlopsGEQRT returns the leading-order flop count of the QR factorization
// of an m×n tile (dgeqrf count).
func FlopsGEQRT(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	if m >= n {
		return 2*fm*fn*fn - 2.0/3.0*fn*fn*fn
	}
	return 2*fn*fm*fm - 2.0/3.0*fm*fm*fm
}

// FlopsUNMQR returns the flop count of applying a k-reflector Q (or Qᵀ)
// from the left to an m×n tile (dormqr count).
func FlopsUNMQR(m, n, k int) float64 {
	fm, fn, fk := float64(m), float64(n), float64(k)
	return 4*fm*fn*fk - 2*fn*fk*fk
}

// FlopsTSQRT returns the flop count of factoring a triangle-on-square pair
// with an m×n square part.
func FlopsTSQRT(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return 2 * fm * fn * fn
}

// FlopsTSMQR returns the flop count of applying a TSQRT transformation with
// k reflectors to a tile pair whose square part is m2×n.
func FlopsTSMQR(m2, n, k int) float64 {
	fm, fn, fk := float64(m2), float64(n), float64(k)
	return 4 * fm * fn * fk
}

// FlopsTTQRT returns the flop count of factoring a triangle-on-triangle
// pair of order k.
func FlopsTTQRT(k int) float64 {
	fk := float64(k)
	return 2.0 / 3.0 * fk * fk * fk
}

// FlopsTTMQR returns the flop count of applying a TTQRT transformation of
// order k to a tile pair with n columns.
func FlopsTTMQR(n, k int) float64 {
	fn, fk := float64(n), float64(k)
	return 2 * fk * fk * fn
}

// FlopsLQ duals: identical counts with rows and columns exchanged.

// FlopsGELQT returns the flop count of the LQ factorization of an m×n tile.
func FlopsGELQT(m, n int) float64 { return FlopsGEQRT(n, m) }

// FlopsUNMLQ returns the flop count of applying a k-reflector LQ transform
// from the right to an m×n tile.
func FlopsUNMLQ(m, n, k int) float64 { return FlopsUNMQR(n, m, k) }

// FlopsTSLQT returns the flop count of the triangle-on-square LQ factor
// kernel with an m×n dense part.
func FlopsTSLQT(m, n int) float64 { return FlopsTSQRT(n, m) }

// FlopsTSMLQ returns the flop count of applying a TSLQT transform to a tile
// pair whose dense part is m×n2 with k reflectors.
func FlopsTSMLQ(m, n2, k int) float64 { return FlopsTSMQR(n2, m, k) }

// FlopsTTLQT returns the flop count of the triangle-on-triangle LQ factor
// kernel of order k.
func FlopsTTLQT(k int) float64 { return FlopsTTQRT(k) }

// FlopsTTMLQ returns the flop count of applying a TTLQT transform of order
// k to a tile pair with m rows.
func FlopsTTMLQ(m, k int) float64 { return FlopsTTMQR(m, k) }
