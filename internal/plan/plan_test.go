package plan

import (
	"math"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/trees"
)

// TestEnumerateHonorsPins pins each knob in turn and checks every
// candidate respects it.
func TestEnumerateHonorsPins(t *testing.T) {
	base := Request{M: 1024, N: 1024, Workers: 8, Kind: KindValues}

	nbReq := base
	nbReq.NB = 80
	for _, c := range Enumerate(nbReq) {
		if c.NB != 80 {
			t.Fatalf("pinned nb=80, got candidate %s", c)
		}
	}

	treeReq := base
	treeReq.Tree, treeReq.TreeSet = trees.Greedy, true
	for _, c := range Enumerate(treeReq) {
		if c.Tree != trees.Greedy {
			t.Fatalf("pinned tree=Greedy, got candidate %s", c)
		}
	}

	winReq := base
	winReq.Window = 96
	for _, c := range Enumerate(winReq) {
		if c.Window != 96 {
			t.Fatalf("pinned window=96, got candidate %s", c)
		}
	}
	// The cut width is not a plan dimension: unpinned, every candidate
	// leaves it to the band package, whatever the shape and worker count.
	for _, req := range []Request{base, {M: 4096, N: 4096, Workers: 8, Kind: KindValues}} {
		for _, c := range Enumerate(req) {
			if c.Window != 0 {
				t.Fatalf("unpinned window, got candidate %s", c)
			}
		}
	}

	gemmReq := base
	gemmReq.Gemm = nla.Blocking{MC: 32, KC: 64, NC: 128}
	for _, c := range Enumerate(gemmReq) {
		if c.Gemm != gemmReq.Gemm {
			t.Fatalf("pinned gemm blocking, got candidate %s", c)
		}
	}

	algReq := Request{M: 4096, N: 256, Workers: 8, Kind: KindValues, Alg: AlgBidiag}
	for _, c := range Enumerate(algReq) {
		if c.RBidiag {
			t.Fatalf("pinned bidiag, got rbidiag candidate %s", c)
		}
	}
	algReq.Alg = AlgRBidiag
	for _, c := range Enumerate(algReq) {
		if !c.RBidiag {
			t.Fatalf("pinned rbidiag, got bidiag candidate %s", c)
		}
	}
}

// TestEnumerateValidity checks that every candidate of ragged and
// degenerate shapes is executable: NB within the matrix, window
// non-negative, a runtime-accepted tree, and at least one candidate.
func TestEnumerateValidity(t *testing.T) {
	shapes := [][2]int{
		{1, 1}, {3, 5}, {5, 3}, {31, 31}, {33, 97},
		{256, 256}, {1000, 7}, {7, 1000}, {4096, 256}, {8192, 8192},
	}
	for _, s := range shapes {
		req := Request{M: s[0], N: s[1], Workers: 8, Kind: KindValues}
		cfgs := Enumerate(req)
		if len(cfgs) == 0 {
			t.Fatalf("%dx%d: no candidates", s[0], s[1])
		}
		minDim := min(s[0], s[1])
		for _, c := range cfgs {
			if !validConfig(c, s[0], s[1]) {
				t.Fatalf("%dx%d: invalid candidate %s", s[0], s[1], c)
			}
			if c.NB > minDim {
				t.Fatalf("%dx%d: nb=%d exceeds min dim", s[0], s[1], c.NB)
			}
		}
	}
	if Enumerate(Request{M: 0, N: 5}) != nil {
		t.Fatal("empty shape should enumerate nothing")
	}
}

// TestEnumerateGemmVariants checks the blocking grid: the non-default
// GEMM blocking is offered only at nb ≥ altBlockingMinNB, the default
// enumerates first within each tile size (so ModelPick ties keep it),
// and ModelPick itself resolves to the default blocking — the cost
// model cannot distinguish blockings, so the variant exists for the
// tuner's measurements.
func TestEnumerateGemmVariants(t *testing.T) {
	req := Request{M: 1024, N: 1024, Workers: 8, Kind: KindValues}
	sawAlt := false
	seenDefault := map[int]bool{}
	for _, c := range Enumerate(req) {
		switch c.Gemm {
		case nla.Blocking{}:
			seenDefault[c.NB] = true
		case altBlocking:
			sawAlt = true
			if c.NB < altBlockingMinNB {
				t.Fatalf("alternate blocking offered at nb=%d < %d: %s", c.NB, altBlockingMinNB, c)
			}
			if !seenDefault[c.NB] {
				t.Fatalf("alternate blocking enumerated before the default at nb=%d", c.NB)
			}
		default:
			t.Fatalf("unexpected blocking in candidate %s", c)
		}
	}
	if !sawAlt {
		t.Fatal("no alternate-blocking candidate at a shape admitting nb >= 96")
	}
	pick, err := ModelPick(req)
	if err != nil {
		t.Fatal(err)
	}
	if pick.Gemm != (nla.Blocking{}) {
		t.Fatalf("ModelPick chose non-default blocking %s; ties must keep the default", pick)
	}
}

// TestChanRule checks R-bidiagonalization only appears for shapes that
// pass 3m ≥ 5n.
func TestChanRule(t *testing.T) {
	for _, c := range Enumerate(Request{M: 300, N: 299, Workers: 4, Kind: KindValues}) {
		if c.RBidiag {
			t.Fatalf("near-square shape offered rbidiag: %s", c)
		}
	}
	sawRB := false
	for _, c := range Enumerate(Request{M: 2048, N: 256, Workers: 4, Kind: KindValues}) {
		sawRB = sawRB || c.RBidiag
	}
	if !sawRB {
		t.Fatal("tall shape never offered rbidiag")
	}
}

// TestPriceAllSorted checks the candidate ordering is cheapest-first
// and deterministic.
func TestPriceAllSorted(t *testing.T) {
	req := Request{M: 512, N: 512, Workers: 4, Kind: KindValues}
	a := PriceAll(req, SeedRates())
	if len(a) == 0 {
		t.Fatal("no candidates")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Cost < a[i-1].Cost {
			t.Fatalf("not sorted at %d: %v > %v", i, a[i-1].Cost, a[i].Cost)
		}
	}
	b := PriceAll(req, SeedRates())
	for i := range a {
		if a[i].Config != b[i].Config {
			t.Fatalf("non-deterministic ordering at %d: %s vs %s", i, a[i].Config, b[i].Config)
		}
	}
}

// TestModelPickDeterministic checks memoized and unmemoized paths
// agree and that wide shapes normalize to their transpose.
func TestModelPickDeterministic(t *testing.T) {
	req := Request{M: 768, N: 768, Workers: 8, Kind: KindValues}
	first, err := ModelPick(req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ModelPick(req) // memo hit
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("ModelPick not stable: %s vs %s", first, second)
	}
	if best := PriceAll(req, SeedRates()); best[0].Config != first {
		t.Fatalf("ModelPick %s disagrees with PriceAll head %s", first, best[0].Config)
	}
	wide, err := ModelPick(Request{M: 300, N: 900, Workers: 8, Kind: KindValues})
	if err != nil {
		t.Fatal(err)
	}
	tall, err := ModelPick(Request{M: 900, N: 300, Workers: 8, Kind: KindValues})
	if err != nil {
		t.Fatal(err)
	}
	if wide != tall {
		t.Fatalf("transpose shapes disagree: %s vs %s", wide, tall)
	}
	if _, err := ModelPick(Request{M: 0, N: 4}); err == nil {
		t.Fatal("empty shape should error")
	}
}

// TestPlanningStaysFast guards the planning cost bound: pricing must be
// bounded (closed-form fallbacks), not proportional to the matrix.
func TestPlanningStaysFast(t *testing.T) {
	start := time.Now()
	PriceAll(Request{M: 16384, N: 16384, Workers: 32, Kind: KindValues}, SeedRates())
	PriceAll(Request{M: 1024, N: 1024, Workers: 8, Kind: KindValues}, SeedRates())
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("planning took %v; budget is a few hundred ms", el)
	}
}

// TestKindPricing checks band/SVD requests price stage 1 alone: the same
// configuration costs exactly its chase less than for a values request.
func TestKindPricing(t *testing.T) {
	req := Request{M: 512, N: 512, Workers: 4, Kind: KindValues}
	values := map[Config]float64{}
	for _, c := range PriceAll(req, SeedRates()) {
		values[c.Config] = c.Cost
	}
	p := &pricer{req: req.normalized(), rates: SeedRates(), s1: map[Config]Candidate{}, s2: map[Config]Candidate{}}
	for _, kind := range []Kind{KindBand, KindSVD} {
		req.Kind = kind
		for _, c := range PriceAll(req, SeedRates()) {
			want := values[c.Config] - p.stage2(c.Config).Cost
			if math.Abs(c.Cost-want) > 1e-12*want {
				t.Fatalf("%s priced %s at %g, want stage 1 alone %g", kind, c.Config, c.Cost, want)
			}
		}
	}
}

// TestStage2Pricing pins the closed-form chase price: the Householder
// flop model over the BRDSEG rate, sped up by extra workers only where
// the band is long enough to pipeline.
func TestStage2Pricing(t *testing.T) {
	rates := SeedRates()
	price := func(n, workers int) float64 {
		p := &pricer{req: Request{M: n, N: n, Workers: workers, Kind: KindValues}.normalized(),
			rates: rates, s1: map[Config]Candidate{}, s2: map[Config]Candidate{}}
		return p.stage2(Config{NB: 64}).Cost
	}
	want := band.ModelFlops(768, 64) / rates.PerKind[kernels.BRDSEGKind]
	if got := price(768, 1); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("stage2(768², 1 worker) = %g, want flops/rate = %g", got, want)
	}
	if one, eight := price(768, 1), price(768, 8); eight != one {
		t.Fatalf("a 12-round band cannot pipeline: 8 workers priced %g, 1 worker %g", eight, one)
	}
	if one, eight := price(8192, 1), price(8192, 8); eight >= one/2 {
		t.Fatalf("a 128-round band pipelines: 8 workers priced %g, 1 worker %g", eight, one)
	}
}
