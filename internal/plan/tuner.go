package plan

import (
	"math"
	"math/bits"
	"sync"
)

// Key identifies one tuning profile: the shape bucket, worker count,
// job kind and every caller pin (a request pinning a knob must not
// pollute — or read — the unpinned profile).
type Key struct {
	Kind Kind `json:"kind"`
	// RowsBucket/ColsBucket are ⌈log₂⌉ of the normalized (rows ≥ cols)
	// dimensions.
	RowsBucket int  `json:"rows_bucket"`
	ColsBucket int  `json:"cols_bucket"`
	Workers    int  `json:"workers"`
	PinNB      int  `json:"pin_nb,omitempty"`
	PinTree    int  `json:"pin_tree,omitempty"`
	PinTreeSet bool `json:"pin_tree_set,omitempty"`
	PinWindow  int  `json:"pin_window,omitempty"`
	PinAlg     Alg  `json:"pin_alg,omitempty"`
}

// bucket returns ⌈log₂ x⌉ for x ≥ 1 (0 for x ≤ 1): 1024 and 768 share
// bucket 10, 1025 starts bucket 11.
func bucket(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// KeyOf buckets a request.
func KeyOf(req Request) Key {
	req = req.normalized()
	return Key{
		Kind:       req.Kind,
		RowsBucket: bucket(req.M),
		ColsBucket: bucket(req.N),
		Workers:    req.Workers,
		PinNB:      max(req.NB, 0),
		PinTree:    int(req.Tree),
		PinTreeSet: req.TreeSet,
		PinWindow:  max(req.Window, 0),
		PinAlg:     req.Alg,
	}
}

// candStat is one candidate's measured record inside a profile.
type candStat struct {
	cfg       Config
	modelCost float64
	assigned  int // decisions handed out (including in-flight)
	samples   int
	sumGF     float64 // Σ measured GFLOP/s
}

func (c *candStat) mean() float64 {
	if c.samples == 0 {
		return 0
	}
	return c.sumGF / float64(c.samples)
}

// profile is one shape bucket's exploration state.
type profile struct {
	key  Key
	m, n int // representative shape: the first request seen
	// cands is the model's top-K candidate set, model-ranked (index 0
	// is the model's pick).
	cands []*candStat
	// promoted indexes the measured winner; -1 while exploring.
	promoted int
}

// Decision reports how a plan was chosen.
type Decision struct {
	Config Config
	// Source is "model" (the model's top pick, still exploring),
	// "explore" (a non-top candidate, still exploring), or "tuned"
	// (the promoted measured winner).
	Source string
}

// topK is the size of each profile's exploration set.
const topK = 3

// DefaultMinSamples is the promotion threshold: every candidate needs
// this many measured runs before the winner is promoted.
const DefaultMinSamples = 3

// TunerConfig configures a Tuner.
type TunerConfig struct {
	// Path persists profiles as versioned JSON (empty: in-memory only).
	// NewTuner loads it when present; promotions and Close save it.
	Path string
	// MinSamples is the per-candidate promotion threshold
	// (0: DefaultMinSamples; negative: never promote).
	MinSamples int
	// Rates overrides the pricing table (nil: SeedRates).
	Rates *Rates
}

// Counters are the tuner's lifetime decision counts.
type Counters struct {
	Model      uint64 `json:"model"`
	Explore    uint64 `json:"explore"`
	Tuned      uint64 `json:"tuned"`
	Promotions uint64 `json:"promotions"`
	// Loaded counts profiles restored from disk at startup.
	Loaded uint64 `json:"loaded"`
}

// Tuner is the concurrency-safe online profile store: model-seeded
// candidate sets per shape bucket, refined by measured GFLOP/s until a
// winner is promoted. All methods are safe for concurrent use.
type Tuner struct {
	mu       sync.Mutex
	rates    Rates
	minSamp  int
	path     string
	profiles map[Key]*profile
	counters Counters
}

// NewTuner starts a tuner, loading cfg.Path when it holds a
// current-version state file (anything else starts cold).
func NewTuner(cfg TunerConfig) *Tuner {
	t := &Tuner{
		rates:    SeedRates(),
		minSamp:  cfg.MinSamples,
		path:     cfg.Path,
		profiles: map[Key]*profile{},
	}
	if cfg.Rates != nil {
		t.rates = *cfg.Rates
	}
	if t.minSamp == 0 {
		t.minSamp = DefaultMinSamples
	}
	if t.path != "" {
		if st, err := LoadState(t.path); err == nil {
			t.restore(st)
		}
	}
	return t
}

// lookup returns the request's profile, creating (and model-pricing) it
// on first sight.
func (t *Tuner) lookup(req Request) *profile {
	key := KeyOf(req)
	if p, ok := t.profiles[key]; ok {
		return p
	}
	priced := PriceAll(req, t.rates)
	k := min(topK, len(priced))
	p := &profile{key: key, m: req.M, n: req.N, promoted: -1}
	for _, c := range priced[:k] {
		p.cands = append(p.cands, &candStat{cfg: c.Config, modelCost: c.Cost})
	}
	t.profiles[key] = p
	return p
}

// Decide returns the plan for a request: the promoted winner when the
// profile has one, otherwise the least-assigned candidate of the
// exploration set (so concurrent traffic spreads across candidates).
func (t *Tuner) Decide(req Request) (Decision, error) {
	req = req.normalized()
	if req.M <= 0 || req.N <= 0 {
		_, err := ModelPick(req) // uniform error
		return Decision{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.lookup(req)
	if len(p.cands) == 0 {
		panic("plan: profile with no candidates") // PriceAll guarantees ≥ 1
	}
	if p.promoted >= 0 {
		t.counters.Tuned++
		return Decision{Config: p.cands[p.promoted].cfg, Source: "tuned"}, nil
	}
	best := 0
	for i, c := range p.cands {
		if c.assigned < p.cands[best].assigned {
			best = i
		}
	}
	p.cands[best].assigned++
	src := "explore"
	if best == 0 {
		src = "model"
		t.counters.Model++
	} else {
		t.counters.Explore++
	}
	return Decision{Config: p.cands[best].cfg, Source: src}, nil
}

// Record feeds one executed plan's measured whole-graph GFLOP/s back
// into its profile. When every candidate of a still-exploring profile
// reaches MinSamples, the highest-mean candidate is promoted (and the
// state persisted, when a path is configured). Non-finite or
// non-positive rates are ignored.
func (t *Tuner) Record(req Request, cfg Config, gflops float64) {
	if gflops <= 0 || math.IsNaN(gflops) || math.IsInf(gflops, 0) {
		return
	}
	req = req.normalized()
	if req.M <= 0 || req.N <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.profiles[KeyOf(req)]
	if !ok {
		return
	}
	var cand *candStat
	for _, c := range p.cands {
		if c.cfg == cfg {
			cand = c
			break
		}
	}
	if cand == nil {
		return
	}
	cand.samples++
	cand.sumGF += gflops
	if p.promoted >= 0 || t.minSamp < 0 {
		return
	}
	for _, c := range p.cands {
		if c.samples < t.minSamp {
			return
		}
	}
	best := 0
	for i, c := range p.cands {
		if c.mean() > p.cands[best].mean() {
			best = i
		}
	}
	p.promoted = best
	t.counters.Promotions++
	if t.path != "" {
		_ = saveState(t.path, t.stateLocked())
	}
}

// Counters returns the lifetime decision counts.
func (t *Tuner) Counters() Counters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters
}

// Close persists the profiles when a path is configured.
func (t *Tuner) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.path == "" {
		return nil
	}
	return saveState(t.path, t.stateLocked())
}
