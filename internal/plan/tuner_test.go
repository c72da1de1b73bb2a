package plan

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/tiled-la/bidiag/internal/trees"
)

func testReq() Request {
	return Request{M: 512, N: 512, Workers: 4, Kind: KindValues}
}

// candidates returns the profile's candidate configs in model order.
func candidates(t testing.TB, tn *Tuner, req Request) []Config {
	t.Helper()
	st := tn.State()
	key := KeyOf(req)
	for _, p := range st.Profiles {
		if p.Key == key {
			cfgs := make([]Config, len(p.Candidates))
			for i, c := range p.Candidates {
				cfgs[i] = c.Config
			}
			return cfgs
		}
	}
	t.Fatalf("no profile for %+v", key)
	return nil
}

// TestDecideExploresThenPromotes drives one profile through the whole
// lifecycle: spread decisions across the candidate set, record samples,
// promote the measured winner, then keep returning it.
func TestDecideExploresThenPromotes(t *testing.T) {
	tn := NewTuner(TunerConfig{MinSamples: 2})
	req := testReq()

	first, err := tn.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != "model" {
		t.Fatalf("first decision should be the model pick, got %+v", first)
	}
	cfgs := candidates(t, tn, req)
	if len(cfgs) == 0 || len(cfgs) > topK {
		t.Fatalf("candidate set size %d, want 1..%d", len(cfgs), topK)
	}
	if first.Config != cfgs[0] {
		t.Fatalf("model pick %s is not the top candidate %s", first.Config, cfgs[0])
	}

	// Exploration spreads: over len(cfgs) decisions each candidate is
	// assigned once.
	seen := map[Config]int{first.Config: 1}
	for i := 1; i < len(cfgs); i++ {
		d, err := tn.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		if d.Source != "explore" {
			t.Fatalf("decision %d: want explore, got %s", i, d.Source)
		}
		seen[d.Config]++
	}
	for _, c := range cfgs {
		if seen[c] != 1 {
			t.Fatalf("candidate %s assigned %d times in first round", c, seen[c])
		}
	}

	// Feed measurements: the LAST candidate measures fastest.
	winner := cfgs[len(cfgs)-1]
	for _, c := range cfgs {
		rate := 10.0
		if c == winner {
			rate = 50.0
		}
		tn.Record(req, c, rate)
		tn.Record(req, c, rate)
	}
	d, err := tn.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Source != "tuned" || d.Config != winner {
		t.Fatalf("want tuned winner %s, got %+v", winner, d)
	}
	ctr := tn.Counters()
	if ctr.Promotions != 1 || ctr.Tuned != 1 {
		t.Fatalf("counters: %+v", ctr)
	}
}

// TestRecordIgnoresGarbage checks bad rates and unknown configs leave
// the profile untouched.
func TestRecordIgnoresGarbage(t *testing.T) {
	tn := NewTuner(TunerConfig{MinSamples: 1})
	req := testReq()
	if _, err := tn.Decide(req); err != nil {
		t.Fatal(err)
	}
	cfgs := candidates(t, tn, req)
	tn.Record(req, cfgs[0], math.NaN())
	tn.Record(req, cfgs[0], math.Inf(1))
	tn.Record(req, cfgs[0], -3)
	tn.Record(req, cfgs[0], 0)
	tn.Record(req, Config{NB: 7777}, 10)          // not a candidate
	tn.Record(Request{M: 64, N: 64}, cfgs[0], 10) // profile never created
	for _, p := range tn.State().Profiles {
		for _, c := range p.Candidates {
			if c.Samples != 0 {
				t.Fatalf("garbage recorded a sample: %+v", c)
			}
		}
	}
}

// TestNegativeMinSamplesNeverPromotes pins the opt-out knob.
func TestNegativeMinSamplesNeverPromotes(t *testing.T) {
	tn := NewTuner(TunerConfig{MinSamples: -1})
	req := testReq()
	if _, err := tn.Decide(req); err != nil {
		t.Fatal(err)
	}
	for range 10 {
		for _, c := range candidates(t, tn, req) {
			tn.Record(req, c, 42)
		}
	}
	d, err := tn.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Source == "tuned" {
		t.Fatal("MinSamples<0 must never promote")
	}
}

// TestPinnedRequestsSeparateProfiles checks a pinned request does not
// share a profile with the unpinned one for the same shape.
func TestPinnedRequestsSeparateProfiles(t *testing.T) {
	tn := NewTuner(TunerConfig{MinSamples: 1})
	req := testReq()
	pinned := req
	pinned.NB = 64
	if _, err := tn.Decide(req); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Decide(pinned); err != nil {
		t.Fatal(err)
	}
	if len(tn.State().Profiles) != 2 {
		t.Fatalf("want 2 profiles, got %d", len(tn.State().Profiles))
	}
	for _, c := range candidates(t, tn, pinned) {
		if c.NB != 64 {
			t.Fatalf("pinned profile has unpinned candidate %s", c)
		}
	}
}

// TestTunerConcurrency hammers Decide/Record/State from many
// goroutines; the race detector does the real checking.
func TestTunerConcurrency(t *testing.T) {
	tn := NewTuner(TunerConfig{MinSamples: 3})
	reqs := []Request{
		{M: 256, N: 256, Workers: 4, Kind: KindValues},
		{M: 512, N: 128, Workers: 4, Kind: KindValues},
		{M: 128, N: 512, Workers: 2, Kind: KindSVD},
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				req := reqs[(g+i)%len(reqs)]
				d, err := tn.Decide(req)
				if err != nil {
					t.Error(err)
					return
				}
				tn.Record(req, d.Config, float64(10+i%7))
				if i%10 == 0 {
					tn.State()
					tn.Counters()
				}
			}
		}()
	}
	wg.Wait()
}

// TestPersistRoundtrip promotes a profile, saves it, and checks a fresh
// tuner restarts warm: the promotion survives and Decide returns it
// immediately with source "tuned".
func TestPersistRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profiles.json")
	tn := NewTuner(TunerConfig{Path: path, MinSamples: 1})
	req := testReq()
	if _, err := tn.Decide(req); err != nil {
		t.Fatal(err)
	}
	cfgs := candidates(t, tn, req)
	winner := cfgs[len(cfgs)-1]
	for _, c := range cfgs {
		rate := 5.0
		if c == winner {
			rate = 99.0
		}
		tn.Record(req, c, rate)
	}
	if err := tn.Close(); err != nil {
		t.Fatal(err)
	}

	warm := NewTuner(TunerConfig{Path: path, MinSamples: 1})
	if warm.Counters().Loaded == 0 {
		t.Fatal("restart did not load any profiles")
	}
	d, err := warm.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Source != "tuned" || d.Config != winner {
		t.Fatalf("restart lost the promotion: %+v (want %s)", d, winner)
	}
}

// TestLoadStateRejects checks missing, corrupt and stale-version files
// all error (callers then start cold).
func TestLoadStateRejects(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadState(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file should error")
	}
	corrupt := filepath.Join(dir, "corrupt.json")
	os.WriteFile(corrupt, []byte("{not json"), 0o644)
	if _, err := LoadState(corrupt); err == nil {
		t.Fatal("corrupt file should error")
	}
	stale := filepath.Join(dir, "stale.json")
	os.WriteFile(stale, []byte(`{"version": 999}`), 0o644)
	if _, err := LoadState(stale); err == nil {
		t.Fatal("version mismatch should error")
	}
	// A tuner pointed at a corrupt path starts cold, not crashed.
	tn := NewTuner(TunerConfig{Path: corrupt})
	if tn.Counters().Loaded != 0 {
		t.Fatal("corrupt file should cold-start")
	}
}

// TestRestoreDropsInvalidConfigs checks a tampered candidate config
// cannot reach an executor through the persisted path.
func TestRestoreDropsInvalidConfigs(t *testing.T) {
	st := State{Version: StateVersion, Profiles: []ProfileState{{
		Key: Key{Kind: KindValues, RowsBucket: 9, ColsBucket: 9, Workers: 4},
		M:   512, N: 512, Promoted: 0,
		Candidates: []CandidateState{{Config: Config{NB: -3}, Samples: 5, GFlops: 10}},
	}}}
	tn := NewTuner(TunerConfig{})
	tn.restore(st)
	if len(tn.profiles) != 0 {
		t.Fatal("invalid persisted config survived restore")
	}
}

// TestRestoreKeepsWindowedProfiles checks profiles persisted while the
// planner still enumerated BND2BD windows keep loading: the window is
// carried as a pin of that candidate, not rejected.
func TestRestoreKeepsWindowedProfiles(t *testing.T) {
	st := State{Version: StateVersion, Profiles: []ProfileState{{
		Key: Key{Kind: KindValues, RowsBucket: 10, ColsBucket: 10, Workers: 4},
		M:   1024, N: 1024, Promoted: 1,
		Candidates: []CandidateState{
			{Config: Config{NB: 64, Tree: trees.Greedy}, Samples: 3, GFlops: 10},
			{Config: Config{NB: 64, Tree: trees.Greedy, Window: 64}, Samples: 3, GFlops: 12},
		},
	}}}
	tn := NewTuner(TunerConfig{MinSamples: 3})
	tn.restore(st)
	if len(tn.profiles) != 1 {
		t.Fatal("a persisted profile with a non-zero window was dropped")
	}
	for _, p := range tn.profiles {
		if len(p.cands) != 2 || p.cands[1].cfg.Window != 64 {
			t.Fatalf("window not restored: %+v", p.cands)
		}
	}
}

// TestVersion1FileColdStarts checks a profile file written before Key and
// Config lost the fused dimension is discarded, not half-read: its keys
// would otherwise merge fused-only and staged-only profiles.
func TestVersion1FileColdStarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profiles.json")
	v1 := `{"version": 1, "min_samples": 3, "profiles": [{
		"key": {"kind": 1, "rows_bucket": 9, "cols_bucket": 9, "workers": 4, "fuse_only": true},
		"m": 512, "n": 512, "promoted": 0,
		"candidates": [{"config": {"nb": 64, "tree": 3, "window": 0, "fused": true}, "samples": 3, "gflops": 12}]}]}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(path); err == nil {
		t.Fatal("a version-1 file loaded")
	}
	if tn := NewTuner(TunerConfig{Path: path}); tn.Counters().Loaded != 0 || len(tn.profiles) != 0 {
		t.Fatalf("a version-1 file restored %d profiles", len(tn.profiles))
	}
}

// FuzzLoadState feeds the profile loader arbitrary files: loading and
// NewTuner never panic, and a restored profile only holds — and Decide
// only hands out — configurations validConfig accepts for the shape the
// profile was priced at.
func FuzzLoadState(f *testing.F) {
	tn := NewTuner(TunerConfig{MinSamples: 1})
	req := testReq()
	if _, err := tn.Decide(req); err != nil {
		f.Fatal(err)
	}
	for _, c := range candidates(f, tn, req) {
		tn.Record(req, c, 10)
	}
	valid, err := json.Marshal(tn.State())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"version": 2, "profiles": [{"m": 8, "n": 8, "promoted": 7, "candidates": [{"config": {"nb": 9}}]}]}`))
	f.Add([]byte(`{"version": 2, "profiles": [{"key": {"workers": 1}, "m": -4, "n": 3, "promoted": -9, "candidates": [{"config": {"nb": 1, "tree": 99}}]}]}`))
	// A promotion index below -1 used to survive restore.
	f.Add([]byte(`{"version": 2, "profiles": [{"key": {"kind": 1, "rows_bucket": 9, "cols_bucket": 9, "workers": 4},
		"m": 512, "n": 512, "promoted": -5, "candidates": [{"config": {"nb": 64}}]}]}`))
	f.Add([]byte(`{"version": 1}`))
	f.Add([]byte(`{not json`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "profiles.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		LoadState(path)
		tn := NewTuner(TunerConfig{Path: path, MinSamples: 1})
		for key, p := range tn.profiles {
			if len(p.cands) == 0 || p.promoted < -1 || p.promoted >= len(p.cands) {
				t.Fatalf("profile %+v restored with %d candidates, promoted %d", key, len(p.cands), p.promoted)
			}
			for _, c := range p.cands {
				if !validConfig(c.cfg, p.m, p.n) {
					t.Fatalf("profile %+v restored invalid candidate %s for %dx%d", key, c.cfg, p.m, p.n)
				}
			}
			// A request for the profile's own shape and pins reaches it
			// without pricing anything.
			req := Request{M: p.m, N: p.n, Workers: key.Workers, Kind: key.Kind, NB: key.PinNB,
				Tree: trees.Kind(key.PinTree), TreeSet: key.PinTreeSet, Window: key.PinWindow, Alg: key.PinAlg}
			if KeyOf(req) != key || req.M <= 0 || req.N <= 0 {
				continue
			}
			d, err := tn.Decide(req)
			if err != nil || !validConfig(d.Config, p.m, p.n) {
				t.Fatalf("profile %+v handed out %s (%v) for %dx%d", key, d.Config, err, p.m, p.n)
			}
		}
	})
}
