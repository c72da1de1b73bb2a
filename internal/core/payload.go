package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/tiled-la/bidiag/internal/nla"
)

// Payload serializers for the distributed executor: each dependency region
// of a tile gets a closure that snapshots its current float64 contents as
// little-endian bytes, so cross-node messages carry the real data the
// consumer reads. The element order within a region is fixed (column
// major), making the wire format deterministic. Each serializer is paired
// with a restore closure that writes a snapshot back into the same region
// in the same order — the receive side of a true multi-process transport.

const regWhole = -1

// regionBytes returns the EXACT serialized size of a region — it sizes
// snapshot allocations and guards restores, so it must mirror the
// serializer loops below even for non-square edge tiles. (The graph
// handles declare the square-tile approximation 8*(r*c-k)/2 as their
// modeled volume; that figure is shared with the simulator and is not
// a wire size.)
func regionBytes(rows, cols, region int) int {
	switch region {
	case regDiag:
		return 8 * min(rows, cols)
	case regUpper:
		// Strict upper part: column j holds min(j, rows) elements.
		n := 0
		for j := 1; j < cols; j++ {
			n += min(j, rows)
		}
		return 8 * n
	case regLower:
		// Strict lower part: column j holds rows-j-1 elements while any
		// remain.
		n := 0
		for j := 0; j < cols && j+1 < rows; j++ {
			n += rows - j - 1
		}
		return 8 * n
	default:
		return 8 * rows * cols
	}
}

func regionPayload(t *nla.Matrix, region int) func() []byte {
	return func() []byte {
		buf := make([]byte, 0, regionBytes(t.Rows, t.Cols, region))
		put := func(v float64) {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		switch region {
		case regDiag:
			k := min(t.Rows, t.Cols)
			for i := 0; i < k; i++ {
				put(t.At(i, i))
			}
		case regUpper:
			for j := 1; j < t.Cols; j++ {
				for i := 0; i < min(j, t.Rows); i++ {
					put(t.At(i, j))
				}
			}
		case regLower:
			for j := 0; j < t.Cols; j++ {
				for i := j + 1; i < t.Rows; i++ {
					put(t.At(i, j))
				}
			}
		default: // regWhole
			buf = buf[:8*t.Rows*t.Cols]
			for j := 0; j < t.Cols; j++ {
				nla.PutFloat64sLE(buf[8*j*t.Rows:], t.Data[j*t.LD:j*t.LD+t.Rows])
			}
		}
		return buf
	}
}

// regionRestore is the inverse of regionPayload: it consumes one region
// snapshot from the front of buf — same element order, same size — writes
// it into the tile, and returns the bytes consumed.
func regionRestore(t *nla.Matrix, region int) func([]byte) int {
	return func(buf []byte) int {
		need := regionBytes(t.Rows, t.Cols, region)
		if len(buf) < need {
			panic(fmt.Sprintf("core: region restore needs %d bytes, have %d", need, len(buf)))
		}
		off := 0
		get := func() float64 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
			return v
		}
		switch region {
		case regDiag:
			k := min(t.Rows, t.Cols)
			for i := 0; i < k; i++ {
				t.Set(i, i, get())
			}
		case regUpper:
			for j := 1; j < t.Cols; j++ {
				for i := 0; i < min(j, t.Rows); i++ {
					t.Set(i, j, get())
				}
			}
		case regLower:
			for j := 0; j < t.Cols; j++ {
				for i := j + 1; i < t.Rows; i++ {
					t.Set(i, j, get())
				}
			}
		default: // regWhole
			for j := 0; j < t.Cols; j++ {
				nla.Float64sFromLE(t.Data[j*t.LD:j*t.LD+t.Rows], buf[off:])
				off += 8 * t.Rows
			}
		}
		return off
	}
}
