package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/tiled-la/bidiag/internal/nla"
)

// FuzzRegionPayload round-trips one region of an arbitrary tile — any
// shape up to 40×40, any leading dimension, any bit pattern including NaN
// payloads — through the serializer pair the distributed executor ships
// tiles with.
func FuzzRegionPayload(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(0), uint8(1), int64(1))
	f.Add(uint8(39), uint8(4), uint8(5), uint8(2), int64(2))
	f.Add(uint8(0), uint8(20), uint8(1), uint8(3), int64(3))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, r8, c8, pad, reg uint8, seed int64) {
		rows, cols := 1+int(r8)%40, 1+int(c8)%40
		ld := rows + int(pad)%8
		region := int(reg)%4 - 1 // regWhole, regDiag, regUpper, regLower
		in := func(i, j int) bool {
			switch region {
			case regDiag:
				return i == j
			case regUpper:
				return i < j
			case regLower:
				return i > j
			}
			return i < rows
		}
		rng := rand.New(rand.NewSource(seed))
		src := &nla.Matrix{Rows: rows, Cols: cols, LD: ld, Data: make([]float64, ld*cols)}
		for i := range src.Data {
			src.Data[i] = math.Float64frombits(rng.Uint64())
		}
		need := regionBytes(rows, cols, region)
		buf := regionPayload(src, region)()
		if len(buf) != need {
			t.Fatalf("%dx%d region %d: payload %d bytes, regionBytes %d", rows, cols, region, len(buf), need)
		}
		const sentinel = 0x7ff8_dead_beef_0001
		dst := &nla.Matrix{Rows: rows, Cols: cols, LD: ld, Data: make([]float64, ld*cols)}
		for i := range dst.Data {
			dst.Data[i] = math.Float64frombits(sentinel)
		}
		if n := regionRestore(dst, region)(buf); n != need {
			t.Fatalf("restore consumed %d of %d bytes", n, need)
		}
		for j := 0; j < cols; j++ {
			for i := 0; i < ld; i++ {
				want := uint64(sentinel)
				if i < rows && in(i, j) {
					want = math.Float64bits(src.Data[i+j*ld])
				}
				if got := math.Float64bits(dst.Data[i+j*ld]); got != want {
					t.Fatalf("%dx%d ld %d region %d: (%d,%d) = %#x, want %#x", rows, cols, ld, region, i, j, got, want)
				}
			}
		}
		if sum := regionBytes(rows, cols, regDiag) + regionBytes(rows, cols, regUpper) + regionBytes(rows, cols, regLower); sum != 8*rows*cols {
			t.Fatalf("%dx%d: regions sum to %d bytes, want %d", rows, cols, sum, 8*rows*cols)
		}
		if need > 0 {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "region restore needs") {
					t.Fatalf("short buffer: panic %q", msg)
				}
			}()
			regionRestore(dst, region)(buf[:need-1])
			t.Fatal("short buffer restored without a panic")
		}
	})
}
