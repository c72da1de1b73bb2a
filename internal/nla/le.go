package nla

import (
	"encoding/binary"
	"math"
)

// PutFloat64sLE writes src into dst as consecutive little-endian IEEE-754
// words — the one byte order every float64 leaves the process in (HTTP
// matrix bodies, tile payloads, the cache-key digest). dst must hold at
// least 8·len(src) bytes.
func PutFloat64sLE(dst []byte, src []float64) {
	dst = dst[:8*len(src)]
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// Float64sFromLE is the inverse of PutFloat64sLE: it fills dst from the
// first 8·len(dst) bytes of src, bit for bit (NaN payloads included).
func Float64sFromLE(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}
