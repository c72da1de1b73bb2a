package bidiag

import (
	"errors"
	"fmt"
	"strings"

	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/plan"
	"github.com/tiled-la/bidiag/internal/trees"
)

// ErrInvalidOptions matches (errors.Is) every error Options.Validate
// returns: the caller's options, not the input or the machine, are at
// fault (bidiagd answers 400).
var ErrInvalidOptions = errors.New("bidiag: invalid options")

// invalidOptions marks a Validate error without rewording it.
type invalidOptions struct{ error }

func (invalidOptions) Is(target error) bool { return target == ErrInvalidOptions }

// Validate returns a copy of o with defaults applied and every knob
// checked: the tile size and worker count resolve their zero values,
// the tree, algorithm and BND2BD selectors must be known constants, the
// BND2BD cut width must be non-negative, and a Distributed run takes
// neither Auto nor a Tree (it has no planner, and its trees are the
// paper's hierarchical ones). It is the ONE validation
// path — every entry point (the one-shot calls, the Service on a pool or
// on a mesh, and the planner's own output) goes through it, so a
// Validate-clean Options is executable everywhere. A nil receiver
// validates the defaults. Its errors match ErrInvalidOptions.
func (o *Options) Validate() (Options, error) {
	v, err := o.validate()
	if err != nil {
		return v, invalidOptions{err}
	}
	return v, nil
}

func (o *Options) validate() (Options, error) {
	v, err := o.withDefaults()
	if err != nil {
		return v, err
	}
	if _, err := v.Tree.kind(); err != nil {
		return v, err
	}
	switch v.Algorithm {
	case AutoAlgorithm, Bidiag, RBidiag:
	default:
		return v, fmt.Errorf("bidiag: unknown algorithm %d", int(v.Algorithm))
	}
	switch v.BND2BD {
	case BND2BDAuto, BND2BDPipelined, BND2BDSequential:
	default:
		return v, fmt.Errorf("bidiag: unknown BND2BD mode %d", int(v.BND2BD))
	}
	if v.Distributed != nil {
		if v.Auto {
			return v, errors.New("bidiag: Options.Auto cannot plan distributed execution; set the knobs explicitly")
		}
		if v.Tree != Auto {
			return v, fmt.Errorf("bidiag: distributed execution runs the hierarchical trees; Options.Tree = %v cannot be honoured", v.Tree)
		}
	}
	return v, nil
}

// ErrNonFinite is returned (wrapped, with the offending position) by
// every entry point whose input matrix holds a NaN or an infinity. Such
// an entry would spread through whole blocks of reflector applications
// and surface much later, if at all, as a failure of the bidiagonal QR
// iteration to converge.
var ErrNonFinite = errors.New("bidiag: matrix has a non-finite entry")

// CheckFinite is the input-side companion of Options.Validate: one pass
// over the matrix that returns an error wrapping ErrNonFinite for the
// first NaN or ±Inf entry, nil otherwise. GE2BND, SingularValues, SVD
// and Service.Submit call it before doing any work.
func (d *Dense) CheckFinite() error {
	m := d.inner
	for j := 0; j < m.Cols; j++ {
		for i, v := range m.Data[j*m.LD : j*m.LD+m.Rows] {
			if v-v != 0 { // NaN or ±Inf
				return fmt.Errorf("%w: a(%d,%d) = %v", ErrNonFinite, i, j, v)
			}
		}
	}
	return nil
}

// ParseTree converts a tree name to its Tree constant. Both the Go
// constant names (FlatTS, Greedy, …) and their lower-case forms are
// accepted; the empty string selects the default (Auto).
func ParseTree(s string) (Tree, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return Auto, nil
	case "flatts":
		return FlatTS, nil
	case "flattt":
		return FlatTT, nil
	case "greedy":
		return Greedy, nil
	}
	return 0, fmt.Errorf("bidiag: unknown tree %q (want Auto, FlatTS, FlatTT or Greedy)", s)
}

// ParseAlgorithm converts an algorithm name to its Algorithm constant.
// The empty string (or "auto") selects AutoAlgorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "", "auto", "autoalgorithm":
		return AutoAlgorithm, nil
	case "bidiag":
		return Bidiag, nil
	case "rbidiag":
		return RBidiag, nil
	}
	return 0, fmt.Errorf("bidiag: unknown algorithm %q (want auto, bidiag or rbidiag)", s)
}

// ParseBND2BD converts a BND2BD mode name to its constant. The empty
// string (or "auto") selects BND2BDAuto.
func ParseBND2BD(s string) (BND2BD, error) {
	switch strings.ToLower(s) {
	case "", "auto", "bnd2bdauto":
		return BND2BDAuto, nil
	case "pipelined", "bnd2bdpipelined":
		return BND2BDPipelined, nil
	case "sequential", "bnd2bdsequential":
		return BND2BDSequential, nil
	}
	return 0, fmt.Errorf("bidiag: unknown bnd2bd mode %q (want auto, pipelined or sequential)", s)
}

// AutoPlan resolves Options.Auto for an m×n problem: it returns the
// concrete, validated Options the planner selects, with Auto cleared.
// Zero-valued knobs are free for the planner — NB, BND2BDWindow,
// Tree = Auto and Algorithm = AutoAlgorithm all mean "planner decides"
// — while any explicitly set knob is honored as a pin. Workers, Gamma,
// Gemm and BND2BD pass through unchanged. The resolution is deterministic: equal
// (m, n, options) always resolve to the same plan, so running with
// Options.Auto is bitwise-identical to running the returned explicit
// Options. Candidates are priced on the full singular-value pipeline by
// simulating their real task DAGs under the machine model's measured
// kernel rates; see internal/plan for the scheme. Distributed planning
// is not supported: Options.Auto with Options.Distributed is an error.
func AutoPlan(m, n int, o *Options) (Options, error) {
	var raw Options
	if o != nil {
		raw = *o
	}
	raw.Auto = true // what the caller is asking for; Validate refuses it a Distributed run
	opts, err := raw.Validate()
	if err != nil {
		return opts, err
	}
	if m <= 0 || n <= 0 {
		return opts, errors.New("bidiag: empty matrix")
	}
	cfg, err := plan.ModelPick(planRequest(m, n, raw, opts, plan.KindValues))
	if err != nil {
		return opts, err
	}
	return applyPlanConfig(opts, cfg), nil
}

// planRequest lowers the public options to a planning request: raw
// carries the pins (zero values mean "free" — validated defaults would
// erase that), opts the resolved worker count.
func planRequest(m, n int, raw, opts Options, kind plan.Kind) plan.Request {
	req := plan.Request{M: m, N: n, Workers: opts.Workers, Kind: kind}
	if raw.NB > 0 {
		req.NB = raw.NB
	}
	if raw.Tree != Auto {
		tk, err := raw.Tree.kind()
		if err == nil { // unknown trees were rejected by Validate
			req.Tree, req.TreeSet = tk, true
		}
	}
	if raw.BND2BDWindow > 0 {
		req.Window = raw.BND2BDWindow
	}
	if raw.Gemm != (GemmBlock{}) {
		req.Gemm = nla.Blocking(raw.Gemm)
	}
	switch raw.Algorithm {
	case Bidiag:
		req.Alg = plan.AlgBidiag
	case RBidiag:
		req.Alg = plan.AlgRBidiag
	}
	return req
}

// applyPlanConfig writes a planner configuration into validated
// options, clearing Auto.
func applyPlanConfig(opts Options, cfg plan.Config) Options {
	opts.Auto = false
	opts.NB = cfg.NB
	opts.Tree = treeFromKind(cfg.Tree)
	if cfg.RBidiag {
		opts.Algorithm = RBidiag
	} else {
		opts.Algorithm = Bidiag
	}
	opts.BND2BDWindow = cfg.Window
	opts.Gemm = GemmBlock(cfg.Gemm)
	return opts
}

// treeFromKind maps an internal tree kind back to the public constant.
func treeFromKind(k trees.Kind) Tree {
	switch k {
	case trees.FlatTS:
		return FlatTS
	case trees.FlatTT:
		return FlatTT
	case trees.Greedy:
		return Greedy
	}
	return Auto
}
