package core_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
	"github.com/tiled-la/bidiag/internal/trees"
)

// goldenFile pins what the builders emit, one "key name digest" line per
// digest, so a refactor of the step builders or of the replay must
// reproduce the graph task for task and edge for edge. Key "graph" digests
// the handles, tasks and edges of every row. Real-data rows also digest
// every bit of the factored tiles and of the recorded back-transforms,
// under the key of the arithmetic that produced them (numericPath): those
// bits depend on the platform, so they are checked only where a column was
// recorded.
const goldenFile = "testdata/graph_golden.txt"

func TestGraphGolden(t *testing.T) {
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) != 3 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		if want[fs[0]] == nil {
			want[fs[0]] = map[string]string{}
		}
		want[fs[0]][fs[1]] = fs[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	rows := goldenRows()
	check := func(t *testing.T, key string, digest func(goldenRow) string) {
		n, bad := 0, 0
		for _, r := range rows {
			d := digest(r)
			if d == "" {
				continue
			}
			n++
			if w, ok := want[key][r.name]; !ok || w != d {
				if bad++; bad <= 20 {
					t.Errorf("%s: digest %s, golden %q", r.name, d, w)
				}
			}
		}
		if n != len(want[key]) {
			t.Errorf("%d rows, golden file has %d", n, len(want[key]))
		}
		if bad > 0 {
			t.Errorf("%d of %d digests differ", bad, n)
		}
	}
	t.Run("graph", func(t *testing.T) {
		check(t, "graph", func(r goldenRow) string { return r.graph })
	})
	t.Run("numeric", func(t *testing.T) {
		key := numericPath()
		if want[key] == nil {
			t.Skipf("no result digests recorded for %s; the graph digests still pin the builders", key)
		}
		check(t, key, func(r goldenRow) string { return r.numeric })
	})
}

// numericPath names the arithmetic the result digests depend on: the
// architecture, the GOAMD64 level (v3 lets the compiler fuse a*b+c into
// one FMA, as arm64 always may) and whether nla's AVX2+FMA assembly ran.
func numericPath() string {
	p := runtime.GOARCH
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				p += "." + s.Value
			}
		}
	}
	if nla.AsmKernels() {
		return p + "/asm"
	}
	return p + "/go"
}

type goldenConfig struct {
	name string
	cfg  func(core.Shape) core.Config
}

func goldenConfigs() []goldenConfig {
	var cs []goldenConfig
	for _, tr := range []trees.Kind{trees.FlatTS, trees.FlatTT, trees.Greedy, trees.Auto} {
		cs = append(cs, goldenConfig{tr.String(), func(core.Shape) core.Config {
			return core.Config{Tree: tr, Cores: 2}
		}})
	}
	for _, g := range []dist.Grid{{R: 2, C: 2}, {R: 3, C: 1}, {R: 1, C: 2}} {
		cs = append(cs,
			goldenConfig{fmt.Sprintf("hier%dx%d", g.R, g.C), func(sh core.Shape) core.Config {
				return dist.Defaults(sh, g, 2).Configure()
			}},
			goldenConfig{fmt.Sprintf("auto%dx%d", g.R, g.C), func(sh core.Shape) core.Config {
				return dist.AutoDefaults(sh, g, 2).Configure()
			}})
	}
	return cs
}

// A goldenRow is one shape × configuration × builder × build mode, with
// the sha256 hex digests of its graph and, for real-data modes, of its
// results.
type goldenRow struct {
	name, graph, numeric string
}

func goldenRows() []goldenRow {
	shapes := [][3]int{
		{1, 1, 4}, {5, 3, 4}, {17, 9, 4}, {16, 16, 4}, {40, 12, 4}, {64, 8, 4}, {33, 33, 8}, {9, 9, 16},
	}
	builders := []string{"bidiag", "rbidiag", "qr"}
	modes := []string{"sim", "real", "rec"}
	var rows []goldenRow
	for _, s := range shapes {
		sh := core.ShapeOf(s[0], s[1], s[2])
		for _, gc := range goldenConfigs() {
			for _, bname := range builders {
				for _, mode := range modes {
					r := goldenRow{name: fmt.Sprintf("%dx%d/nb%d/%s/%s/%s", s[0], s[1], s[2], gc.name, bname, mode)}
					hg, hn := sha256.New(), sha256.New()
					if goldenBuild(hg, hn, sh, gc.cfg(sh), bname, mode, int64(s[0]*100+s[1])) {
						r.numeric = hex.EncodeToString(hn.Sum(nil))
					}
					r.graph = hex.EncodeToString(hg.Sum(nil))
					rows = append(rows, r)
				}
			}
		}
	}
	return rows
}

// goldenBuild builds one row's graph and digests it into hg; for real-data
// modes it runs the graph, digests the results into hn and reports true.
func goldenBuild(hg, hn hash.Hash, sh core.Shape, cfg core.Config, builder, mode string, seed int64) bool {
	var data *tile.Matrix
	var rec *core.Recorder
	if mode != "sim" {
		data = randomTiledMatrix(seed, sh.M, sh.N, sh.NB)
	}
	if mode == "rec" {
		rec = &core.Recorder{}
		cfg.Recorder = rec
	}
	g := sched.NewGraph()
	var rdata *tile.Matrix
	switch builder {
	case "bidiag":
		core.BuildBidiag(g, sh, data, cfg)
	case "rbidiag":
		_, rdata = core.BuildRBidiag(g, sh, data, cfg)
	case "qr":
		core.BuildQR(g, sh, data, cfg)
	}
	digestGraph(hg, g)
	if data == nil {
		return false
	}
	if err := g.RunSequential(); err != nil {
		panic(err)
	}
	digestTiles(hn, data)
	if rdata != nil {
		digestTiles(hn, rdata)
	}
	if rec == nil {
		return true
	}
	rng := rand.New(rand.NewSource(seed + 1))
	n := sh.N
	ub := nla.RandomMatrix(rng, n, n)
	vbt := nla.RandomMatrix(rng, n, n)
	vb := nla.RandomMatrix(rng, n, n)
	for _, apply := range []func() (*nla.Matrix, error){
		func() (*nla.Matrix, error) { return rec.ApplyLeftAll(ub, 1) },
		func() (*nla.Matrix, error) { return rec.ApplyRightAll(vbt, 1) },
		func() (*nla.Matrix, error) { return rec.ApplyRightT(vb, (*sched.Graph).RunSequential) },
	} {
		out, err := apply()
		if err != nil {
			panic(err)
		}
		digestMatrix(hn, out)
	}
	return true
}

func randomTiledMatrix(seed int64, m, n, nb int) *tile.Matrix {
	rng := rand.New(rand.NewSource(seed))
	d := tile.New(m, n, nb)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			d.Set(i, j, 2*rng.Float64()-1)
		}
	}
	return d
}

func putInts(h hash.Hash, vs ...int64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

func bits(f float64) int64 { return int64(math.Float64bits(f)) }

func digestGraph(h hash.Hash, g *sched.Graph) {
	idx := make(map[*sched.Handle]int64, len(g.Handles()))
	putInts(h, int64(len(g.Handles())), int64(len(g.Tasks)), int64(g.ScratchElems))
	for i, hd := range g.Handles() {
		idx[hd] = int64(i)
		putInts(h, int64(hd.Bytes), int64(hd.Owner))
	}
	for _, t := range g.Tasks {
		run := int64(0)
		if t.Run != nil {
			run = 1
		}
		putInts(h, int64(t.Kind), int64(t.Node), int64(t.I), int64(t.J), int64(t.K),
			bits(t.Weight), bits(t.Flops), run, int64(len(t.Succs())))
		for s, succ := range t.Succs() {
			hs := t.EdgeHandles(s)
			putInts(h, int64(succ.ID), int64(t.EdgeBytes(s)), int64(len(hs)))
			for _, hd := range hs {
				putInts(h, idx[hd])
			}
		}
	}
}

func digestMatrix(h hash.Hash, m *nla.Matrix) {
	putInts(h, int64(m.Rows), int64(m.Cols))
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			putInts(h, bits(m.At(i, j)))
		}
	}
}

func digestTiles(h hash.Hash, t *tile.Matrix) {
	for j := 0; j < t.Q; j++ {
		for i := 0; i < t.P; i++ {
			digestMatrix(h, t.Tile(i, j))
		}
	}
}
