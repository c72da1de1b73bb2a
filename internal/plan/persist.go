package plan

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/tiled-la/bidiag/internal/trees"
)

// StateVersion is the persisted profile format version. Load discards
// any other version: a stale profile re-learns instead of misleading.
// Version 2 dropped the fused plan dimension from Key and Config.
const StateVersion = 2

// State is the tuner's complete serializable state — the persisted
// profile file and the /debug/plans document are this one type.
type State struct {
	Version    int            `json:"version"`
	MinSamples int            `json:"min_samples"`
	Counters   Counters       `json:"counters"`
	Profiles   []ProfileState `json:"profiles"`
}

// ProfileState is one shape bucket's serialized exploration state.
type ProfileState struct {
	Key Key `json:"key"`
	// M, N are the representative shape the candidates were priced at.
	M int `json:"m"`
	N int `json:"n"`
	// Promoted indexes Candidates (-1: still exploring).
	Promoted   int              `json:"promoted"`
	Candidates []CandidateState `json:"candidates"`
}

// CandidateState is one candidate's serialized record.
type CandidateState struct {
	Config Config `json:"config"`
	// Desc is the human-readable form of Config (ignored on load).
	Desc      string  `json:"desc"`
	ModelCost float64 `json:"model_cost"`
	Samples   int     `json:"samples"`
	// GFlops is the mean measured whole-graph rate.
	GFlops float64 `json:"gflops"`
}

// stateLocked snapshots the tuner; the caller holds t.mu. Profiles are
// ordered deterministically so saved files diff cleanly.
func (t *Tuner) stateLocked() State {
	st := State{Version: StateVersion, MinSamples: t.minSamp, Counters: t.counters}
	for _, p := range t.profiles {
		ps := ProfileState{Key: p.key, M: p.m, N: p.n, Promoted: p.promoted}
		for _, c := range p.cands {
			ps.Candidates = append(ps.Candidates, CandidateState{
				Config:    c.cfg,
				Desc:      c.cfg.String(),
				ModelCost: c.modelCost,
				Samples:   c.samples,
				GFlops:    c.mean(),
			})
		}
		st.Profiles = append(st.Profiles, ps)
	}
	sort.Slice(st.Profiles, func(i, j int) bool {
		a, b := st.Profiles[i].Key, st.Profiles[j].Key
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.RowsBucket != b.RowsBucket {
			return a.RowsBucket < b.RowsBucket
		}
		if a.ColsBucket != b.ColsBucket {
			return a.ColsBucket < b.ColsBucket
		}
		return a.Workers < b.Workers
	})
	return st
}

// State returns the tuner's current state (the /debug/plans document).
func (t *Tuner) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stateLocked()
}

// restore rebuilds the profile map from a loaded state; called from
// NewTuner before the tuner is shared.
func (t *Tuner) restore(st State) {
	for _, ps := range st.Profiles {
		if len(ps.Candidates) == 0 {
			continue
		}
		p := &profile{key: ps.Key, m: ps.M, n: ps.N, promoted: ps.Promoted}
		if p.promoted < -1 || p.promoted >= len(ps.Candidates) {
			p.promoted = -1
		}
		for _, cs := range ps.Candidates {
			if !validConfig(cs.Config, ps.M, ps.N) {
				p = nil
				break
			}
			p.cands = append(p.cands, &candStat{
				cfg:       cs.Config,
				modelCost: cs.ModelCost,
				assigned:  cs.Samples,
				samples:   cs.Samples,
				sumGF:     cs.GFlops * float64(cs.Samples),
			})
		}
		if p != nil {
			t.profiles[p.key] = p
		}
	}
	t.counters.Loaded = uint64(len(t.profiles))
}

// validConfig rejects corrupt persisted configs before they can reach
// an executor.
func validConfig(c Config, m, n int) bool {
	if m < n {
		m, n = n, m
	}
	return c.NB >= 1 && c.NB <= n && c.Window >= 0 &&
		c.Tree >= trees.FlatTS && c.Tree <= trees.Auto &&
		c.Gemm.MC >= 0 && c.Gemm.KC >= 0 && c.Gemm.NC >= 0
}

// LoadState reads and validates a persisted state file. A missing file,
// unparsable content or a version mismatch is an error; callers
// typically fall back to a cold start.
func LoadState(path string) (State, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return State{}, err
	}
	var st State
	if err := json.Unmarshal(raw, &st); err != nil {
		return State{}, fmt.Errorf("plan: corrupt profile file %s: %w", path, err)
	}
	if st.Version != StateVersion {
		return State{}, fmt.Errorf("plan: profile file %s has version %d, want %d", path, st.Version, StateVersion)
	}
	return st, nil
}

// saveState writes the state atomically (tmp + rename): readers never
// see a torn file, and a crash mid-write leaves the old file intact.
func saveState(path string, st State) error {
	raw, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".plan-profiles-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(append(raw, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
