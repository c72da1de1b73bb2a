// Package machine defines the calibrated performance model used by the
// virtual-time simulators to reproduce the shape of the paper's Section VI
// experiments. The default model follows the paper's platform, the miriel
// cluster of PLAFRIM: two Dodeca-core Haswell Xeon E5-2680 v3 per node
// (24 cores), sequential-MKL GEMM at 37 GFlop/s per core, and an
// InfiniBand QDR network at 40 Gb/s.
//
// Absolute GFlop/s from the simulator are not expected to match the
// paper's hardware; the calibration targets the relative behaviour that
// drives every conclusion: TS kernels are markedly more efficient than TT
// kernels, panel factorizations are slower than GEMM-like updates, the
// band reductions BND2BD/BD2VAL are memory bound, and communication costs
// follow message volume over a 5 GB/s NIC.
package machine

import (
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/sched"
)

// Model is a machine description for the simulators.
type Model struct {
	// CoresPerNode is the number of worker cores per node (24 on miriel;
	// the paper leaves one of them to MPI progress on square runs).
	CoresPerNode int
	// PeakPerCore is the practical per-core GEMM rate in flop/s.
	PeakPerCore float64
	// Eff maps each kernel to its fraction of PeakPerCore.
	Eff [kernels.NumKinds]float64
	// NetBandwidth is the node NIC bandwidth in bytes/s.
	NetBandwidth float64
	// NetLatency is the per-message latency in seconds.
	NetLatency float64
	// MemBoundRate is the aggregate per-node rate (flop/s) of the
	// memory-bound BND2BD stage.
	MemBoundRate float64
	// BD2VALRate is the per-node rate (flop/s) of the bidiagonal QR
	// iteration.
	BD2VALRate float64
}

// Miriel returns the model calibrated to the paper's platform.
func Miriel() Model {
	m := Model{
		CoresPerNode: 24,
		PeakPerCore:  37e9,
		NetBandwidth: 5e9,    // 40 Gb/s
		NetLatency:   1.5e-6, // InfiniBand QDR, MPI level
		MemBoundRate: 20e9,
		BD2VALRate:   4e9,
	}
	// Kernel efficiencies relative to the GEMM peak. TS update kernels are
	// the closest to pure GEMM; panel factorizations are Level-2 rich; TT
	// kernels "only reach a fraction of the performance of TS kernels"
	// (Section III.A).
	//
	// The apply-family entries are re-measured against the vectorized
	// AVX2+FMA kernels (PR 9): with TSMQR anchored at the paper's 0.78,
	// the in-situ traced rates of a 1024² GE2BND put the square-tile
	// UNMQR/UNMLQ at ≈ 0.54× the TSMQR rate across nb = 64…128 (TSMQR's
	// dense V2 block runs through the packed GEMM; UNMQR on a square
	// tile has no GEMM half, only the triangular Dot4/Axpy4 updates).
	// The previous 0.72 assumed MKL's large-operand dlarfb ratio, which
	// our tile-sized kernels do not reach.
	m.Eff[kernels.GEQRTKind] = 0.45
	m.Eff[kernels.GELQTKind] = 0.45
	m.Eff[kernels.UNMQRKind] = 0.42
	m.Eff[kernels.UNMLQKind] = 0.42
	m.Eff[kernels.TSQRTKind] = 0.55
	m.Eff[kernels.TSLQTKind] = 0.55
	m.Eff[kernels.TSMQRKind] = 0.78
	m.Eff[kernels.TSMLQKind] = 0.78
	m.Eff[kernels.TTQRTKind] = 0.38
	m.Eff[kernels.TTLQTKind] = 0.38
	m.Eff[kernels.TTMQRKind] = 0.44
	m.Eff[kernels.TTMLQKind] = 0.44
	m.Eff[kernels.LACPYKind] = 1 // zero flops anyway
	m.Eff[kernels.LASETKind] = 1
	// BND2BD chase segments are memory bound: per core they reach about
	// MemBoundRate/CoresPerNode of the GEMM peak (Section VI treats the
	// whole stage at 20 GFlop/s per node).
	m.Eff[kernels.BRDSEGKind] = m.MemBoundRate / float64(m.CoresPerNode) / m.PeakPerCore
	return m
}

// TimeOf returns the modeled duration of a task in seconds.
func (m Model) TimeOf(t *sched.Task) float64 {
	if t.Flops == 0 {
		return 0
	}
	eff := m.Eff[t.Kind]
	if eff <= 0 {
		eff = 0.5
	}
	return t.Flops / (m.PeakPerCore * eff)
}

// NBRamp models the surface-to-volume efficiency loss of small tiles:
// kernels on nb-sized tiles reach eff·nb/(nb+c) of their asymptotic rate
// (c ≈ 40 matches the common observation that nb ≈ 160 gives ~80% of the
// large-tile rate). The planner prices candidate tile sizes with it.
func NBRamp(nb int) float64 {
	return float64(nb) / (float64(nb) + 40)
}

// DistConfig returns the sched.DistConfig for a simulation on the given
// number of nodes. reserveCore mirrors the paper's square-matrix runs,
// which keep one core per node free for MPI progress.
func (m Model) DistConfig(nodes int, reserveCore bool) sched.DistConfig {
	workers := m.CoresPerNode
	if reserveCore && workers > 1 {
		workers--
	}
	return sched.DistConfig{
		Nodes:          nodes,
		WorkersPerNode: workers,
		Latency:        m.NetLatency,
		BytesPerTime:   m.NetBandwidth,
		TimeOf:         m.TimeOf,
	}
}

// BND2BDTime models the memory-bound band-to-bidiagonal stage on one node:
// ~6·n²·nb flops of Givens updates at the memory-bound rate.
func (m Model) BND2BDTime(n, nb int) float64 {
	return 6 * float64(n) * float64(n) * float64(nb) / m.MemBoundRate
}

// BD2VALTime models the bidiagonal QR iteration: O(n²) per sweep with a
// small iteration count, fitted as ~30·n² flops.
func (m Model) BD2VALTime(n int) float64 {
	return 30 * float64(n) * float64(n) / m.BD2VALRate
}

// GatherBandTime models collecting the band (n·(nb+1) doubles) onto a
// single node before the shared-memory BND2BD stage, as the paper's
// implementation does.
func (m Model) GatherBandTime(n, nb, nodes int) float64 {
	if nodes <= 1 {
		return 0
	}
	bytes := 8 * float64(n) * float64(nb+1)
	return m.NetLatency*float64(nodes) + bytes/m.NetBandwidth
}
