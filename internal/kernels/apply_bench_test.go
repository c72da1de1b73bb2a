package kernels

import (
	"fmt"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/nla"
)

// Stage 1 is these twelve kernels and nothing else: the applies (TSMQR on
// every trailing tile, UNMQR on the panel row) carry most of the flops,
// the factor kernels sit on the critical path of every tree. Their
// measured rates seed the plan autotuner's cost model, so each is
// benchmarked in isolation across the tile sizes the planner enumerates
// and reported in GFLOP/s, the unit of the model's rate table
// (internal/plan.SeedRates). `bidiagbench -stage apply` takes the same
// measurement into BENCH_kernels_apply.json.

var applyNBs = []int{32, 48, 64, 96, 128}

// benchKernel rates one kernel at every size in applyNBs with a warm
// workspace of ScratchSize elements. A factor kernel's input is restored
// before each call outside the timed region: the GFLOP/s figure is the
// kernel alone, while ns/op includes the restoring copy.
func benchKernel(b *testing.B, kind Kind) {
	for _, nb := range applyNBs {
		b.Run(fmt.Sprintf("nb=%d", nb), func(b *testing.B) {
			var tc BenchCase
			for _, c := range kernelCases(nb) {
				if c.Kind == kind {
					tc = c
				}
			}
			ws := nla.NewWorkspace(ScratchSize(kind, nb, nb, nb))
			tc.Invoke(ws) // warm
			b.ReportAllocs()
			b.ResetTimer()
			var busy time.Duration
			for i := 0; i < b.N; i++ {
				if tc.Restore != nil {
					tc.Restore()
				}
				start := time.Now()
				tc.Run(ws)
				busy += time.Since(start)
			}
			b.ReportMetric(tc.Flops*float64(b.N)/1e9/busy.Seconds(), "GFLOP/s")
		})
	}
}

func BenchmarkGEQRT(b *testing.B) { benchKernel(b, GEQRTKind) }
func BenchmarkUNMQR(b *testing.B) { benchKernel(b, UNMQRKind) }
func BenchmarkTSQRT(b *testing.B) { benchKernel(b, TSQRTKind) }
func BenchmarkTSMQR(b *testing.B) { benchKernel(b, TSMQRKind) }
func BenchmarkTTQRT(b *testing.B) { benchKernel(b, TTQRTKind) }
func BenchmarkTTMQR(b *testing.B) { benchKernel(b, TTMQRKind) }
func BenchmarkGELQT(b *testing.B) { benchKernel(b, GELQTKind) }
func BenchmarkUNMLQ(b *testing.B) { benchKernel(b, UNMLQKind) }
func BenchmarkTSLQT(b *testing.B) { benchKernel(b, TSLQTKind) }
func BenchmarkTSMLQ(b *testing.B) { benchKernel(b, TSMLQKind) }
func BenchmarkTTLQT(b *testing.B) { benchKernel(b, TTLQTKind) }
func BenchmarkTTMLQ(b *testing.B) { benchKernel(b, TTMLQKind) }
