package plan

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/machine"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/trees"
)

// Kind is what the planned job computes; it decides which stages the
// pricing accounts for.
type Kind int

const (
	// KindValues plans the full singular-value pipeline:
	// GE2BND, then BND2BD.
	KindValues Kind = iota
	// KindSVD plans the vector-bearing decomposition: the recorded
	// GE2BND stage.
	KindSVD
)

func (k Kind) String() string {
	switch k {
	case KindValues:
		return "values"
	case KindSVD:
		return "svd"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Alg pins the algorithm choice of a Request.
type Alg int

const (
	// AlgAuto lets the planner choose between BIDIAG and R-BIDIAG.
	AlgAuto Alg = iota
	// AlgBidiag pins direct bidiagonalization.
	AlgBidiag
	// AlgRBidiag pins R-bidiagonalization (QR first).
	AlgRBidiag
)

// Request is one planning problem. Zero-valued knobs are free for the
// planner to choose; nonzero values pin them. Request is comparable, so
// it doubles as a memoization and profile key ingredient.
type Request struct {
	// M, N are the matrix dimensions. The planner normalizes to M ≥ N
	// (singular values are transpose-invariant, and every execution
	// path transposes wide inputs first).
	M, N int
	// Workers is the core count the plan will run on (≤ 0: 1).
	Workers int
	// Kind selects the stages the pricing accounts for.
	Kind Kind

	// NB pins the tile size when > 0.
	NB int
	// Tree pins the reduction tree when TreeSet is true.
	Tree    trees.Kind
	TreeSet bool
	// Alg pins direct vs R-bidiagonalization.
	Alg Alg
}

// normalized returns the request with M ≥ N and Workers ≥ 1.
func (r Request) normalized() Request {
	if r.M < r.N {
		r.M, r.N = r.N, r.M
	}
	if r.Workers < 1 {
		r.Workers = 1
	}
	return r
}

// Config is one concrete, executable configuration: the paper's design
// space of tile size × reduction tree × BIDIAG/R-BIDIAG, which is also
// all the cost model can tell apart. Every Config the planner emits is
// valid for its request's shape: NB ∈ [1, min(m,n)] and a tree the
// runtime accepts.
type Config struct {
	NB      int        `json:"nb"`
	Tree    trees.Kind `json:"tree"`
	RBidiag bool       `json:"rbidiag"`
}

func (c Config) String() string {
	alg := "bidiag"
	if c.RBidiag {
		alg = "rbidiag"
	}
	return fmt.Sprintf("nb=%d tree=%s %s", c.NB, c.Tree, alg)
}

// Rates is the per-kernel pricing table: flop/s per kernel kind at the
// asymptotic (large-nb) rate, plus a per-task scheduling overhead in
// seconds. The nb/(nb+40) cache-blocking ramp of the machine model is
// applied on top during pricing.
type Rates struct {
	PerKind      [kernels.NumKinds]float64
	TaskOverhead float64
}

// brdsegEff is the in-situ rate of the Householder chase tasks relative
// to the GEMM peak, on the scale that anchors TSMQR at 0.78: the
// benchmark's traced pass measures BRDSEG at 0.65× the TSMQR rate
// (10.4 vs 16.0 GFLOP/s at nb = 64) — the chase is Dot4/Axpy4/Gaxpy4
// reflector applications on cache-resident blocks. The machine model
// keeps the paper's memory-bound 20 GFLOP/s-per-node figure for its
// Section VI reproductions; the planner prices what this code runs.
const brdsegEff = 0.5

// SeedRates returns the pricing table of the calibrated machine model:
// peak per-core GEMM rate × per-kernel efficiency (brdsegEff for the
// chase), and a 2µs task overhead so tiny tiles do not look free.
func SeedRates() Rates {
	m := machine.Miriel()
	m.Eff[kernels.BRDSEGKind] = brdsegEff
	var r Rates
	for k := range r.PerKind {
		eff := m.Eff[k]
		if eff <= 0 {
			eff = 0.5
		}
		r.PerKind[k] = m.PeakPerCore * eff
	}
	r.TaskOverhead = 2e-6
	return r
}

// candidate tile sizes: the machine model's nb/(nb+40) ramp flattens
// past ~128, and Table I weights grow as nb³ — this bracket covers the
// efficiency knee without exploding the DAG.
var nbCandidates = [...]int{32, 48, 64, 96, 128}

// treeCandidates are the shared-memory trees the paper compares for
// bidiagonalization (Section V); FlatTT is dominated by Greedy on every
// measured shape, so it is only priced when pinned.
var treeCandidates = [...]trees.Kind{trees.Auto, trees.FlatTS, trees.Greedy}

// maxPlanTasks bounds the DAG size the planner will build for pricing:
// planning must stay a few hundred milliseconds, and each candidate
// tile size costs a graph construction plus a list-scheduling pass.
// Tile sizes whose estimated task count (~2·p·q²) exceed the budget are
// skipped from enumeration (the largest tile size always stays so
// every request gets a plan) — for 1024² that trims nb = 32, whose
// 65k-task DAGs would dominate the planning time for a marginal
// pricing gain. When even the surviving sizes exceed the budget (huge
// matrices), the pricer switches every candidate to the closed-form
// cost model so the ranking stays apples-to-apples.
const maxPlanTasks = 50_000

// taskEstimate approximates the GE2BND task count for an m×n matrix at
// tile size nb: q panels of ~p·q update work.
func taskEstimate(m, n, nb int) int {
	p := (m + nb - 1) / nb
	q := (n + nb - 1) / nb
	return 2 * p * q * q
}

// Enumerate returns the candidate configurations of a request in a
// deterministic order, honoring its pins. It never returns an empty
// slice for a nonempty shape.
func Enumerate(req Request) []Config {
	req = req.normalized()
	if req.M <= 0 || req.N <= 0 {
		return nil
	}
	minDim := req.N

	var nbs []int
	if req.NB > 0 {
		nbs = []int{min(req.NB, minDim)}
	} else {
		for _, nb := range nbCandidates {
			if nb <= minDim && taskEstimate(req.M, req.N, nb) <= maxPlanTasks {
				nbs = append(nbs, nb)
			}
		}
		if len(nbs) == 0 {
			// Sub-tile matrices (minDim < 32) collapse to one tile; huge
			// matrices keep the coarsest tile size that fits the budget.
			nb := min(nbCandidates[len(nbCandidates)-1], minDim)
			nbs = []int{nb}
		}
	}

	var tks []trees.Kind
	if req.TreeSet {
		tks = []trees.Kind{req.Tree}
	} else {
		tks = treeCandidates[:]
	}

	algs := []bool{false}
	switch {
	case req.Alg == AlgBidiag:
	case req.Alg == AlgRBidiag:
		algs = []bool{true}
	case 3*req.M >= 5*req.N && req.M > req.N:
		// Chan's rule says the QR prefactorization can pay; price both.
		algs = []bool{false, true}
	}

	var out []Config
	for _, rb := range algs {
		for _, nb := range nbs {
			for _, tk := range tks {
				out = append(out, Config{NB: nb, Tree: tk, RBidiag: rb})
			}
		}
	}
	return out
}

// Candidate is one priced configuration.
type Candidate struct {
	Config Config
	// Cost is the modeled execution time in seconds on Workers cores.
	Cost float64
	// Tasks is the task count of the priced DAG(s).
	Tasks int
}

// pricer caches the per-stage simulations shared between candidates of
// one request: stage 1 depends on the whole Config, stage 2 on nb alone.
type pricer struct {
	req   Request
	rates Rates
	s1    map[Config]Candidate
	s2    map[int]Candidate
}

func (p *pricer) timeOf(nb int) func(*sched.Task) float64 {
	ramp := machine.NBRamp(nb)
	rates := p.rates
	return func(t *sched.Task) float64 {
		if t.Flops == 0 {
			return rates.TaskOverhead
		}
		r := rates.PerKind[t.Kind]
		if r <= 0 {
			r = rates.PerKind[0]
		}
		return t.Flops/(r*ramp) + rates.TaskOverhead
	}
}

func (p *pricer) simulate(g *sched.Graph, nb int) Candidate {
	res := g.SimulateFixed(p.req.Workers, p.timeOf(nb))
	return Candidate{Cost: res.Makespan, Tasks: res.Tasks}
}

// buildCfg is the simulation-only core configuration of one candidate.
func (p *pricer) buildCfg(tree trees.Kind) core.Config {
	return core.Config{Tree: tree, Gamma: 2, Cores: p.req.Workers}
}

// stage1 prices the GE2BND (or R-BIDIAG) DAG alone by list-scheduling
// the real task graph. Shapes whose DAG exceeds the planning budget
// (Enumerate only lets them through as the coarsest-tile fallback)
// fall back to the closed-form model so planning never stalls on graph
// construction.
func (p *pricer) stage1(c Config) Candidate {
	if v, ok := p.s1[c]; ok {
		return v
	}
	var v Candidate
	if taskEstimate(p.req.M, p.req.N, c.NB) > maxPlanTasks {
		v = p.stage1Formula(c)
	} else {
		sp := pipeline.Spec{
			Shape:   core.ShapeOf(p.req.M, p.req.N, c.NB),
			Config:  p.buildCfg(c.Tree),
			RBidiag: c.RBidiag,
		}
		v = p.simulate(pipeline.Build(sp).Graph, c.NB)
	}
	p.s1[c] = v
	return v
}

// stage1Formula is the closed-form stage-1 cost for over-budget
// shapes: the leading-order flop count (4n²(m−n/3) for GE2BND;
// QR + square bidiagonalization for R-BIDIAG) at the TSMQR update rate
// — the dominant kernel — with the tile ramp, spread across the
// workers at a modeled 85% utilization, plus the per-task scheduling
// overhead. Trees are indistinguishable at this resolution, so the
// enumeration-order tie-break keeps the runtime default tree.
func (p *pricer) stage1Formula(c Config) Candidate {
	m, n := float64(p.req.M), float64(p.req.N)
	var flops float64
	tasks := taskEstimate(p.req.M, p.req.N, c.NB)
	if c.RBidiag {
		// QR of the m×n input, then GE2BND of the n×n R factor.
		flops = 2*n*n*(m-n/3) + 4*n*n*(n-n/3)
		tasks = tasks/2 + taskEstimate(p.req.N, p.req.N, c.NB)
	} else {
		flops = 4 * n * n * (m - n/3) // baseline.PaperFlops
	}
	rate := p.rates.PerKind[kernels.TSMQRKind] * machine.NBRamp(c.NB)
	workers := float64(p.req.Workers)
	cost := flops/(rate*workers*0.85) + float64(tasks)*p.rates.TaskOverhead/workers
	return Candidate{Cost: cost, Tasks: tasks}
}

// stage2 prices the bulge chase of the n×n, bandwidth-nb band stage 1
// leaves behind in closed form: band.ModelFlops (about 8·n²·nb) over the
// per-core BRDSEG rate times the number of chase tasks that can run at
// once, band.Overlap at the cut the band package derives, capped by the
// worker count. The n/nb rounds of a sweep bound that overlap, so on
// short bands the stage prices as one core's work whatever the worker
// count.
func (p *pricer) stage2(nb int) Candidate {
	if v, ok := p.s2[nb]; ok {
		return v
	}
	rate := p.rates.PerKind[kernels.BRDSEGKind]
	if rate <= 0 {
		rate = p.rates.PerKind[0]
	}
	par := math.Min(band.Overlap(p.req.N, nb, 0), float64(p.req.Workers))
	v := Candidate{Cost: band.ModelFlops(p.req.N, nb) / (rate * par)}
	p.s2[nb] = v
	return v
}

// price is stage 1 alone, or for a values job stage 1 then stage 2
// behind the barrier between them.
func (p *pricer) price(c Config) Candidate {
	v := p.stage1(c)
	v.Config = c
	if p.req.Kind == KindValues {
		s2 := p.stage2(c.NB)
		v.Cost += s2.Cost
		v.Tasks += s2.Tasks
	}
	return v
}

// PriceAll enumerates and prices every candidate of a request, returned
// cheapest first. Ties preserve enumeration order, so the result is
// deterministic.
func PriceAll(req Request, rates Rates) []Candidate {
	req = req.normalized()
	cfgs := Enumerate(req)
	p := &pricer{req: req, rates: rates, s1: map[Config]Candidate{}, s2: map[int]Candidate{}}
	out := make([]Candidate, 0, len(cfgs))
	for _, c := range cfgs {
		out = append(out, p.price(c))
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}

// modelMemo caches ModelPick resolutions (pure functions of the
// request under seed rates); memoCap bounds it so adversarial shape
// streams cannot grow it without bound.
var (
	modelMemo sync.Map // Request → Config
	memoCount atomic.Int64
)

const memoCap = 512

// ModelPick returns the model's cheapest valid configuration for a
// request under the seed rates. It is deterministic — equal requests
// always resolve to the same Config — and memoized.
func ModelPick(req Request) (Config, error) {
	req = req.normalized()
	if req.M <= 0 || req.N <= 0 {
		return Config{}, fmt.Errorf("plan: empty shape %dx%d", req.M, req.N)
	}
	if v, ok := modelMemo.Load(req); ok {
		return v.(Config), nil
	}
	priced := PriceAll(req, SeedRates())
	if len(priced) == 0 {
		return Config{}, fmt.Errorf("plan: no candidates for %dx%d", req.M, req.N)
	}
	best := priced[0].Config
	if memoCount.Load() < memoCap {
		if _, loaded := modelMemo.LoadOrStore(req, best); !loaded {
			memoCount.Add(1)
		}
	}
	return best, nil
}
