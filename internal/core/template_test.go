package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/trees"
)

// TestTemplateGraphGolden builds every real-data row of TestGraphGolden
// that a job runs — BIDIAG and R-BIDIAG, each shared-memory tree and
// each grid's AUTO trees, recording or not — as a pipeline template, runs
// it and re-arms it three times, and checks that its graph digest is
// still that of a fresh build of the row, the digest the golden file
// pins: running and re-arming change no task, handle or edge.
func TestTemplateGraphGolden(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 4}, {5, 3, 4}, {17, 9, 4}, {16, 16, 4}, {40, 12, 4}, {64, 8, 4}, {33, 33, 8}, {9, 9, 16},
	}
	type keyed struct {
		name string
		job  func(nb int, rbidiag bool) pipeline.Job
	}
	var jobs []keyed
	for _, tr := range []trees.Kind{trees.FlatTS, trees.FlatTT, trees.Greedy, trees.Auto} {
		jobs = append(jobs, keyed{tr.String(), func(nb int, rbidiag bool) pipeline.Job {
			return pipeline.Local{NB: nb, RBidiag: rbidiag, Tree: tr, Cores: 2}
		}})
	}
	for _, g := range []dist.Grid{{R: 2, C: 2}, {R: 3, C: 1}, {R: 1, C: 2}} {
		jobs = append(jobs, keyed{fmt.Sprintf("auto%dx%d", g.R, g.C), func(nb int, rbidiag bool) pipeline.Job {
			return pipeline.GridJob{NB: nb, RBidiag: rbidiag, Grid: g, WPN: 2}
		}})
	}
	configs := map[string]goldenConfig{}
	for _, gc := range goldenConfigs() {
		configs[gc.name] = gc
	}
	for _, s := range shapes {
		sh := core.ShapeOf(s[0], s[1], s[2])
		seed := int64(s[0]*100 + s[1])
		for _, k := range jobs {
			for _, bname := range []string{"bidiag", "rbidiag"} {
				for _, mode := range []string{"real", "rec"} {
					name := fmt.Sprintf("%dx%d/nb%d/%s/%s/%s", s[0], s[1], s[2], k.name, bname, mode)
					fresh := sha256.New()
					goldenBuild(fresh, sha256.New(), sh, configs[k.name].cfg(sh), bname, mode, seed)
					job, records := k.job(sh.NB, bname == "rbidiag"), mode == "rec"
					a := randomTiledMatrix(seed, sh.M, sh.N, sh.NB).ToDense()
					p := pipeline.Template(job, a, records)
					for rearm := 0; rearm <= 3; rearm++ {
						if rearm > 0 {
							p.Return()
							p = pipeline.Template(job, a, records)
						}
						if _, err := pipeline.Run(p, pipeline.Pool{Workers: 2}); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
					if records != (p.Recorder != nil) {
						t.Fatalf("%s: template recorder %v, want one: %v", name, p.Recorder != nil, records)
					}
					got := sha256.New()
					digestGraph(got, p.Graph)
					if g, w := hex.EncodeToString(got.Sum(nil)), hex.EncodeToString(fresh.Sum(nil)); g != w {
						t.Errorf("%s: re-armed template digest %s, fresh build %s", name, g, w)
					}
				}
			}
		}
	}
}

// BenchmarkBuild times what a values job pays for its GE2BND graph at the
// benchmark's two shapes, square BIDIAG and tall-skinny R-BIDIAG, nb 64:
// a real-data build (no execution, the input already tiled), and the
// checkout of a template with the copy of the input into it, which a
// fresh build pays in tiling the input.
func BenchmarkBuild(b *testing.B) {
	cfg := core.Config{Tree: trees.Auto, Cores: 2}
	for _, c := range []struct {
		name    string
		m, n    int
		rbidiag bool
	}{
		{"bidiag768", 768, 768, false},
		{"rbidiag8192x256", 8192, 256, true},
	} {
		sh := core.ShapeOf(c.m, c.n, 64)
		d := randomTiledMatrix(1, c.m, c.n, 64)
		b.Run("build/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := sched.NewGraph()
				if c.rbidiag {
					core.BuildRBidiag(g, sh, d, cfg)
				} else {
					core.BuildBidiag(g, sh, d, cfg)
				}
			}
		})
		b.Run("rearm/"+c.name, func(b *testing.B) {
			job := pipeline.Local{NB: 64, RBidiag: c.rbidiag, Tree: cfg.Tree, Cores: cfg.Cores}
			a := d.ToDense()
			pipeline.Template(job, a, false).Return()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pipeline.Template(job, a, false).Return()
			}
		})
	}
}
