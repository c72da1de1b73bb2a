package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/trees"
)

// TestTemplateGraphGolden builds every shared-memory real-data row of
// TestGraphGolden that a values job runs (BIDIAG and R-BIDIAG, each tree)
// as a pipeline template, runs it and re-arms it three times, and checks
// that its graph digest is still that of a fresh build of the row, the
// digest the golden file pins: running and re-arming change no task,
// handle or edge.
func TestTemplateGraphGolden(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 4}, {5, 3, 4}, {17, 9, 4}, {16, 16, 4}, {40, 12, 4}, {64, 8, 4}, {33, 33, 8}, {9, 9, 16},
	}
	for _, s := range shapes {
		sh := core.ShapeOf(s[0], s[1], s[2])
		seed := int64(s[0]*100 + s[1])
		for _, gc := range goldenConfigs()[:4] { // the trees; the rest are grid configurations
			for _, bname := range []string{"bidiag", "rbidiag"} {
				name := fmt.Sprintf("%dx%d/nb%d/%s/%s/real", s[0], s[1], s[2], gc.name, bname)
				cfg := gc.cfg(sh)
				fresh := sha256.New()
				goldenBuild(fresh, sha256.New(), sh, cfg, bname, "real", seed)
				spec := pipeline.Spec{Shape: sh, Config: cfg, RBidiag: bname == "rbidiag"}
				a := randomTiledMatrix(seed, sh.M, sh.N, sh.NB).ToDense()
				p := pipeline.Template(spec, a)
				for rearm := 0; rearm <= 3; rearm++ {
					if rearm > 0 {
						p.Return()
						p = pipeline.Template(spec, a)
					}
					if _, err := pipeline.Run(p, pipeline.Pool{Workers: 2}); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
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
			spec := pipeline.Spec{Shape: sh, Config: cfg, RBidiag: c.rbidiag}
			a := d.ToDense()
			pipeline.Template(spec, a).Return()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pipeline.Template(spec, a).Return()
			}
		})
	}
}
