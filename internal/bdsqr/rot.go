package bdsqr

import (
	"math"
	"sort"

	"github.com/tiled-la/bidiag/internal/nla"
)

// The vector-bearing entry. Every step of the iteration multiplies the
// bidiagonal by a plane rotation from the left or from the right, so with
// U the product of the transposed left rotations and V the product of the
// right ones, in the order performed, B = U·diag(d)·Vᵀ once e is
// negligible. SVD does not form U and V: it hands the rotations to the
// caller in bounded batches, and the caller multiplies whatever it wants
// transformed — the identity, or the Q₂ and P₂ of the band stage — by them
// from the right. A rotation only combines two columns, so the caller may
// cut its operand into row panels and update them independently.

// Run is a sequence of plane rotations on the columns of a matrix of
// vectors: rotation t combines the columns p = P+t·DP and q = Q+t·DQ as
//
//	x_p ← C[t]·x_p + S[t]·x_q,   x_q ← C[t]·x_q − S[t]·x_p.
//
// A forward sweep over the block [lo, m] is P = lo, Q = lo+1, DP = DQ = 1,
// a backward sweep P = m, Q = m−1, DP = DQ = −1, and the deflation of a
// zero diagonal entry rotates a moving column against a fixed one
// (DQ = 0).
type Run struct {
	P, Q, DP, DQ int
	C, S         []float64
}

// set records rotation t; the values-only iteration (the tests' oracle)
// passes a nil Run.
func (r *Run) set(t int, c, s float64) {
	if r != nil {
		r.C[t], r.S[t] = c, s
	}
}

// Apply performs the run on the columns of x.
func (r *Run) Apply(x *nla.Matrix) {
	if r.DP == r.DQ && r.Q == r.P+r.DP {
		// A sweep: neighbouring columns, walked up or down.
		nla.RotSeq(x.Rows, x.Data, r.P*x.LD, r.DP*x.LD, r.C, r.S)
		return
	}
	p, q := r.P, r.Q
	for t, c := range r.C {
		s := r.S[t]
		xp := x.Data[p*x.LD : p*x.LD+x.Rows]
		xq := x.Data[q*x.LD : q*x.LD+x.Rows]
		xq = xq[:len(xp)]
		for i, a := range xp {
			b := xq[i]
			xp[i] = c*a + s*b
			xq[i] = c*b - s*a
		}
		p, q = p+r.DP, q+r.DQ
	}
}

// Batch holds the rotations of consecutive steps of the iteration, the
// left ones (for U) and the right ones (for V) each in the order
// performed. The two sides never touch the same matrix, so they can be
// applied concurrently.
type Batch struct {
	Left, Right []Run
}

// batchSweeps bounds a batch: its coefficients fill at most this many
// full-length sweeps, 4·batchSweeps·n floats, whatever the total number
// of rotations (about n² per side).
const batchSweeps = 32

// stream is the Batch under construction. A nil stream discards
// everything: that is the values-only iteration the tests keep as an
// oracle.
type stream struct {
	Batch
	buf   []float64 // coefficient storage of the runs in Batch
	used  int
	apply func(*Batch) error
}

// flush hands the batch to the caller and starts an empty one.
func (s *stream) flush() error {
	if len(s.Left)+len(s.Right) == 0 {
		return nil
	}
	err := s.apply(&s.Batch)
	s.Left, s.Right, s.used = s.Left[:0], s.Right[:0], 0
	return err
}

// run appends a run of n rotations to side, flushing first if the batch
// has no room for reserve more coefficients.
func (s *stream) run(side *[]Run, p, q, dp, dq, n, reserve int) (*Run, error) {
	if s.used+reserve > len(s.buf) {
		if err := s.flush(); err != nil {
			return nil, err
		}
	}
	c, sn := s.buf[s.used:s.used+n:s.used+n], s.buf[s.used+n:s.used+2*n:s.used+2*n]
	s.used += 2 * n
	*side = append(*side, Run{P: p, Q: q, DP: dp, DQ: dq, C: c, S: sn})
	return &(*side)[len(*side)-1], nil
}

// left starts a run of n left rotations, right one of right rotations.
func (s *stream) left(p, q, dp, dq, n int) (*Run, error) {
	if s == nil {
		return nil, nil
	}
	return s.run(&s.Left, p, q, dp, dq, n, 2*n)
}

func (s *stream) right(p, q, dp, dq, n int) (*Run, error) {
	if s == nil {
		return nil, nil
	}
	return s.run(&s.Right, p, q, dp, dq, n, 2*n)
}

// sweep starts the two runs of a sweep of n steps from the plane (p, q)
// in direction step.
func (s *stream) sweep(p, q, step, n int) (l, r *Run, err error) {
	if s == nil {
		return nil, nil, nil
	}
	if l, err = s.run(&s.Left, p, q, step, step, n, 4*n); err != nil {
		return nil, nil, err
	}
	r, err = s.run(&s.Right, p, q, step, step, n, 2*n)
	return l, r, err
}

// Result is the outcome of SVD.
type Result struct {
	// S holds the singular values in descending order: the dqds values,
	// bitwise what SingularValues returns.
	S []float64
	// Col and Neg say where the vectors are: with U and V the products
	// of all left and all right rotations, singular value S[k] has the
	// left vector U[:, Col[k]] and the right vector V[:, Col[k]], negated
	// where Neg[k]. The QR iteration's own converged diagonal, which
	// holds the values up to sign and to its absolute accuracy, only
	// orders and signs the columns.
	Col []int
	Neg []bool
}

// SVD computes the singular value decomposition of the upper-bidiagonal
// matrix (d, e): the values by SingularValues, the vectors by the QR
// iteration, which passes every rotation to apply, batch by batch in the
// order performed. The Batch and its runs are only valid during the call.
// The inputs are not modified.
func SVD(d, e []float64, apply func(*Batch) error) (*Result, error) {
	s, err := SingularValues(d, e)
	if err != nil {
		return nil, err
	}
	n := len(d)
	dd := append([]float64(nil), d...)
	ee := append([]float64(nil), e...)
	out := &stream{buf: make([]float64, 4*batchSweeps*max(n-1, 0)), apply: apply}
	if err := compute(dd, ee, out); err != nil {
		return nil, err
	}
	if err := out.flush(); err != nil {
		return nil, err
	}
	res := &Result{S: s, Col: make([]int, n), Neg: make([]bool, n)}
	for i := range res.Col {
		res.Col[i] = i
	}
	sort.SliceStable(res.Col, func(a, b int) bool {
		return math.Abs(dd[res.Col[a]]) > math.Abs(dd[res.Col[b]])
	})
	for k, c := range res.Col {
		res.Neg[k] = math.Signbit(dd[c])
	}
	return res, nil
}
