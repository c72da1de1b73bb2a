package band

import "github.com/tiled-la/bidiag/internal/nla"

// This file is the vector-bearing side of the BND2BD stage. The chase of
// reduce.go computes B_bd = H_L···H_1 · B · G_1···G_R, one left reflector
// H and one right reflector G per round, so
//
//	B = Q₂ · B_bd · P₂ᵀ,   Q₂ = H_1···H_L,   P₂ = G_1···G_R
//
// with the rounds taken in Reduce's sweep-major order. A Log keeps every
// reflector; MulQ and MulP multiply a matrix by Q₂ or P₂ from the right,
// one reflector after the other in that order, which is how the singular
// vectors of B are accumulated (internal/core/vectors.go): a reflector
// only combines columns, so the rows of the operand are independent and
// any row panel of it can be updated on its own.

// Log holds the reflectors of one reduction: n²/(2·ku) per side, ku
// floats each.
type Log struct {
	n, ku int
	// start[i] is the slot of round 0 of sweep i; round r follows at
	// start[i]+r. Slot s of a side holds tau in tau[s] and the vector,
	// leading 1 stored, in v[s·ku : s·ku+k], k the round's block width.
	// Every round owns its slots, so rounds may log in any order.
	start      []int
	tauL, tauR []float64
	vL, vR     []float64
}

// ReduceLogged is Reduce that also returns the reflectors it applied.
// The bidiagonal is bitwise equal to Reduce's.
func ReduceLogged(b *Matrix) (*Matrix, *Log) {
	w := newWorkFrom(b)
	l := &Log{n: w.n, ku: w.ku, start: make([]int, w.sweeps()+1)}
	for i := 0; i < w.sweeps(); i++ {
		l.start[i+1] = l.start[i] + w.lastRound(i) + 1
	}
	slots := l.start[w.sweeps()]
	l.tauL, l.tauR = make([]float64, slots), make([]float64, slots)
	l.vL, l.vR = make([]float64, slots*w.ku), make([]float64, slots*w.ku)
	w.log = l
	scratch := make([]float64, w.scratchElems())
	for i := 0; i < w.sweeps(); i++ {
		for r := 0; r <= w.lastRound(i); r++ {
			w.round(i, r, scratch)
		}
	}
	return w.extract(), l
}

// put stores the reflectors of round r of sweep i: the left one as tau
// and the tail of its vector, the right one as tau and the whole vector.
func (l *Log) put(i, r int, tauL float64, vt []float64, tauR float64, u []float64) {
	s := l.start[i] + r
	l.tauL[s], l.tauR[s] = tauL, tauR
	l.vL[s*l.ku] = 1
	copy(l.vL[s*l.ku+1:], vt)
	copy(l.vR[s*l.ku:], u)
}

// N returns the order of the reduced band: MulQ and MulP take operands
// with N columns.
func (l *Log) N() int { return l.n }

// MulQ overwrites x with x·Q₂. x has N columns and any number of rows;
// t is scratch of x.Rows elements.
func (l *Log) MulQ(x *nla.Matrix, t []float64) { l.mul(x, l.tauL, l.vL, t) }

// MulP overwrites x with x·P₂, like MulQ.
func (l *Log) MulP(x *nla.Matrix, t []float64) { l.mul(x, l.tauR, l.vR, t) }

func (l *Log) mul(x *nla.Matrix, tau, v, t []float64) {
	if x.Cols != l.n {
		panic("band: Log operand must have N columns")
	}
	for i := 0; i+1 < len(l.start); i++ {
		for s := l.start[i]; s < l.start[i+1]; s++ {
			c0 := i + 1 + (s-l.start[i])*l.ku
			k := min(l.ku, l.n-c0)
			applyRight(x.Data, c0*x.LD, x.LD, x.Rows, tau[s], v[s*l.ku:s*l.ku+k], t)
		}
	}
}

// MulFlops is the flop count of MulQ or MulP on an operand with the
// given number of rows: 4 per element a reflector touches, about
// 2·rows·N² in all.
func (l *Log) MulFlops(rows int) float64 {
	var f float64
	for i := 0; i+1 < len(l.start); i++ {
		// Every sweep's blocks tile the columns [i+1, N).
		f += 4 * float64(rows) * float64(l.n-i-1)
	}
	return f
}
