package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/tiled-la/bidiag/internal/baseline"
	"github.com/tiled-la/bidiag/internal/cluster"
	"github.com/tiled-la/bidiag/internal/critpath"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/machine"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/obs"
	"github.com/tiled-la/bidiag/internal/pipeline"
)

// CommCalJob is one traced calibration job's headline figures.
type CommCalJob struct {
	M           int     `json:"m"`
	N           int     `json:"n"`
	NB          int     `json:"nb"`
	Frames      int64   `json:"frames"`
	WireBytes   int64   `json:"wire_bytes"`
	WallSeconds float64 `json:"wall_seconds"`
}

// CommCalLink is one directed link's measured α-β fit.
type CommCalLink struct {
	From    int32           `json:"from"`
	To      int32           `json:"to"`
	Samples int             `json:"samples"`
	Fit     machine.CommFit `json:"fit"`
}

// CommCalResult is the outcome of a communication calibration: per-link
// and pooled α-β fits from traced frames, and the reconcile of the
// largest job's measured wire time against both the fitted and the
// paper-calibrated (Miriel) comm model.
type CommCalResult struct {
	GridRows, GridCols int             `json:"-"`
	WPN                int             `json:"wpn"`
	Jobs               []CommCalJob    `json:"jobs"`
	Links              []CommCalLink   `json:"links"`
	Fit                machine.CommFit `json:"fit"`
	// Reconcile prices the largest traced job under the pooled fit; its
	// ratio is near 1 by construction (the fit was trained on the same
	// transport) and is the committed self-check figure.
	Reconcile *critpath.CommReport `json:"reconcile"`
	// ModelReconcile prices the same job under machine.Miriel's network
	// terms — informational: loopback TCP is not InfiniBand, so this
	// ratio says how far the test wire is from the paper's.
	ModelReconcile *critpath.CommReport `json:"model_reconcile"`
	// LargestWall and LargestFlops let callers rate the largest job.
	LargestWall  float64 `json:"-"`
	LargestFlops float64 `json:"-"`
	LargestM     int     `json:"-"`
	LargestN     int     `json:"-"`
	LargestNB    int     `json:"-"`
}

// CommCal measures the per-link α-β communication model of a real 2-rank
// loopback-TCP mesh: it runs traced cluster jobs at several tile sizes
// (frame sizes scale with nb², giving the size spread the fit needs),
// pools every traced send into machine.FitComm, and reconciles the
// largest job's measured wire time against the fit. This is the
// communication counterpart of the Reconcile experiment: real wall-clock
// measurement, not virtual time.
func CommCal(sc Scale) (*CommCalResult, *Table, error) {
	grid := dist.Grid{R: 2, C: 1}
	trs, err := dist.LoopbackTCPMesh(2)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()

	var peerWG sync.WaitGroup
	var peerErr error
	peerWG.Add(1)
	go func() {
		defer peerWG.Done()
		peerErr = cluster.ServePeer(cluster.Config{Grid: grid, Transport: trs[1], Rank: 1, StallTimeout: 60 * time.Second})
	}()
	head, err := cluster.NewHead(cluster.Config{Grid: grid, Transport: trs[0], Rank: 0, StallTimeout: 60 * time.Second})
	if err != nil {
		return nil, nil, err
	}

	type shape struct{ m, n, nb int }
	shapes := []shape{{256, 256, 16}, {256, 256, 32}, {256, 256, 64}}
	if sc.Small {
		shapes = []shape{{128, 128, 16}, {128, 128, 32}}
	}
	const wpn = 2

	res := &CommCalResult{GridRows: grid.R, GridCols: grid.C, WPN: wpn}
	type linkKey struct{ from, to int32 }
	linkSamples := map[linkKey][]machine.CommSample{}
	var pooled []machine.CommSample
	var largest []obs.Event

	for _, s := range shapes {
		rng := rand.New(rand.NewSource(int64(s.m)*1_000_003 + int64(s.nb)))
		a := nla.RandomMatrix(rng, s.m, s.n)
		gj := pipeline.GridJob{NB: s.nb, Grid: grid, WPN: wpn}
		jr := head.Job(a, gj, true)
		p := pipeline.Template(gj, a, false)
		rep, err := pipeline.Run(p, jr)
		if err != nil {
			head.Close()
			peerWG.Wait()
			return nil, nil, fmt.Errorf("commcal: %dx%d nb %d: %w", s.m, s.n, s.nb, err)
		}
		p.Return()
		job := CommCalJob{M: s.m, N: s.n, NB: s.nb, WallSeconds: rep.Dist.Wall.Seconds()}
		for _, ev := range jr.Trace.Events {
			if ev.Op != obs.OpSend || ev.Node == ev.Peer {
				continue
			}
			sample := machine.CommSample{Bytes: ev.WireBytes, Seconds: (ev.End - ev.Start).Seconds()}
			pooled = append(pooled, sample)
			k := linkKey{ev.Node, ev.Peer}
			linkSamples[k] = append(linkSamples[k], sample)
			job.Frames++
			job.WireBytes += ev.WireBytes
		}
		res.Jobs = append(res.Jobs, job)
		// The nb sweep is ascending, so the last traced job is the one
		// with the biggest frames; reconcile against that.
		largest = jr.Trace.Events
		res.LargestWall = job.WallSeconds
		res.LargestFlops = baseline.PaperFlops(s.m, s.n)
		res.LargestM, res.LargestN, res.LargestNB = s.m, s.n, s.nb
	}

	if err := head.Close(); err != nil {
		return nil, nil, err
	}
	peerWG.Wait()
	if peerErr != nil {
		return nil, nil, fmt.Errorf("commcal: peer: %w", peerErr)
	}

	for k, samples := range linkSamples {
		fit, err := machine.FitComm(samples)
		if err != nil {
			return nil, nil, err
		}
		res.Links = append(res.Links, CommCalLink{From: k.from, To: k.to, Samples: len(samples), Fit: fit})
	}
	sortLinks(res.Links)
	res.Fit, err = machine.FitComm(pooled)
	if err != nil {
		return nil, nil, err
	}

	// Degenerate pooled fits (no size spread) cannot be reconciled with a
	// finite bandwidth; fall back to an effectively flat bandwidth term.
	alpha, beta := res.Fit.AlphaSeconds, res.Fit.BytesPerSecond
	if res.Fit.Degenerate {
		beta = 1e18
	}
	res.Reconcile, err = critpath.ReconcileComm(largest, alpha, beta)
	if err != nil {
		return nil, nil, err
	}
	mod := machine.Miriel()
	res.ModelReconcile, err = critpath.ReconcileComm(largest, mod.NetLatency, mod.NetBandwidth)
	if err != nil {
		return nil, nil, err
	}

	return res, commCalTable(res), nil
}

func sortLinks(links []CommCalLink) {
	for i := 1; i < len(links); i++ {
		for j := i; j > 0; j-- {
			a, b := links[j-1], links[j]
			if a.From < b.From || (a.From == b.From && a.To < b.To) {
				break
			}
			links[j-1], links[j] = b, a
		}
	}
}

func commCalTable(res *CommCalResult) *Table {
	t := &Table{
		Name: "commcal",
		Caption: fmt.Sprintf("measured α-β comm model of a %dx%d-grid loopback-TCP mesh (pooled: α %.1fµs, β %.2f GB/s, reconcile ratio %.2f)",
			res.GridRows, res.GridCols, res.Fit.AlphaSeconds*1e6, res.Fit.BytesPerSecond/1e9, res.Reconcile.Ratio),
		Header: []string{"link", "samples", "alpha(µs)", "beta(GB/s)", "rms(µs)", "degenerate"},
	}
	for _, l := range res.Links {
		beta := "+Inf"
		if !l.Fit.Degenerate {
			beta = f2(l.Fit.BytesPerSecond / 1e9)
		}
		deg := "no"
		if l.Fit.Degenerate {
			deg = "yes"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d->%d", l.From, l.To), f0(float64(l.Samples)),
			f2(l.Fit.AlphaSeconds * 1e6), beta, f2(l.Fit.ResidualRMS * 1e6), deg,
		})
	}
	return t
}
