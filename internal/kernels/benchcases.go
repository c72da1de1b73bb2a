package kernels

import (
	"math/rand"

	"github.com/tiled-la/bidiag/internal/nla"
)

// BenchCase is one steady-state invocation of a tile kernel on nb×nb
// tiles, as the rate benchmarks of this package and `bidiagbench -stage
// apply` time it. Restore, set for the factor kernels only, puts back the
// input Run destroys; the benchmarks stop the clock around it.
type BenchCase struct {
	Kind    Kind
	Flops   float64
	Restore func()
	Run     func(ws *nla.Workspace)
}

// Invoke is one call as the executors make it: input in place, then the
// kernel.
func (c BenchCase) Invoke(ws *nla.Workspace) {
	if c.Restore != nil {
		c.Restore()
	}
	c.Run(ws)
}

// BenchCases builds one case per QR/LQ kernel at tile size nb on random
// tiles drawn from rng, factor kernel first and then the apply of its
// reflectors: the two share their tiles, and the factor has run once so
// that the apply has something to apply.
func BenchCases(rng *rand.Rand, nb int) []BenchCase {
	mk := func() *nla.Matrix { return nla.RandomMatrix(rng, nb, nb) }
	upper := func() *nla.Matrix {
		m := mk()
		for j := 0; j < nb; j++ {
			for i := j + 1; i < nb; i++ {
				m.Set(i, j, 0)
			}
		}
		return m
	}
	lower := func() *nla.Matrix { return upper().Transpose() }
	tau := make([]float64, nb)

	var cases []BenchCase
	family := func(a1, a2 *nla.Matrix, factor Kind, fflops float64, fn func(a1, a2, t *nla.Matrix, ws *nla.Workspace),
		apply Kind, aflops float64, an func(a1, a2, t, c1, c2 *nla.Matrix, ws *nla.Workspace)) {
		t, c1, c2 := nla.NewMatrix(nb, nb), mk(), mk()
		o1, o2 := a1.Clone(), a2.Clone()
		restore := func() {
			nla.CopyInto(a1, o1)
			nla.CopyInto(a2, o2)
		}
		fn(a1, a2, t, nil)
		cases = append(cases,
			BenchCase{factor, fflops, restore, func(ws *nla.Workspace) { fn(a1, a2, t, ws) }},
			BenchCase{apply, aflops, nil, func(ws *nla.Workspace) { an(a1, a2, t, c1, c2, ws) }})
	}
	family(mk(), mk(), GEQRTKind, FlopsGEQRT(nb, nb),
		func(a, _, t *nla.Matrix, ws *nla.Workspace) { GEQRT(a, t, tau, ws) },
		UNMQRKind, FlopsUNMQR(nb, nb, nb),
		func(a, _, t, c, _ *nla.Matrix, ws *nla.Workspace) { UNMQR(true, nb, a, t, c, ws) })
	family(upper(), mk(), TSQRTKind, FlopsTSQRT(nb, nb),
		func(a1, a2, t *nla.Matrix, ws *nla.Workspace) { TSQRT(a1, a2, t, tau, ws) },
		TSMQRKind, FlopsTSMQR(nb, nb, nb),
		func(_, a2, t, c1, c2 *nla.Matrix, ws *nla.Workspace) { TSMQR(true, nb, a2, t, c1, c2, ws) })
	family(upper(), upper(), TTQRTKind, FlopsTTQRT(nb),
		func(a1, a2, t *nla.Matrix, ws *nla.Workspace) { TTQRT(a1, a2, t, tau, ws) },
		TTMQRKind, FlopsTTMQR(nb, nb),
		func(_, a2, t, c1, c2 *nla.Matrix, ws *nla.Workspace) { TTMQR(true, nb, a2, t, c1, c2, ws) })
	family(mk(), mk(), GELQTKind, FlopsGELQT(nb, nb),
		func(a, _, t *nla.Matrix, ws *nla.Workspace) { GELQT(a, t, tau, ws) },
		UNMLQKind, FlopsUNMLQ(nb, nb, nb),
		func(a, _, t, c, _ *nla.Matrix, ws *nla.Workspace) { UNMLQ(true, nb, a, t, c, ws) })
	family(lower(), mk(), TSLQTKind, FlopsTSLQT(nb, nb),
		func(a1, a2, t *nla.Matrix, ws *nla.Workspace) { TSLQT(a1, a2, t, tau, ws) },
		TSMLQKind, FlopsTSMLQ(nb, nb, nb),
		func(_, a2, t, c1, c2 *nla.Matrix, ws *nla.Workspace) { TSMLQ(true, nb, a2, t, c1, c2, ws) })
	family(lower(), lower(), TTLQTKind, FlopsTTLQT(nb),
		func(a1, a2, t *nla.Matrix, ws *nla.Workspace) { TTLQT(a1, a2, t, tau, ws) },
		TTMLQKind, FlopsTTMLQ(nb, nb),
		func(_, a2, t, c1, c2 *nla.Matrix, ws *nla.Workspace) { TTMLQ(true, nb, a2, t, c1, c2, ws) })
	return cases
}
