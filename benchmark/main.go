// Command benchmark is the repository's one end-to-end benchmark. It
// measures five workloads — three library calls and two kinds of traffic
// against a real bidiagd child process — end to end with tracing off,
// and layer by layer in a separate traced pass, and checks every output
// against the input's prescribed spectrum.
//
//	go run ./benchmark [-seed N] [-repeat K]        the whole suite
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//
// The second form runs one workload in one mode and prints, as its last
// line, the JSON object the acceptance driver reads; BENCHMARK.json at
// the repository root names the workloads, metrics and bounds. Run it
// from the repository root. See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// manifest is the part of BENCHMARK.json the harness reads back: the
// nominal run length and the regression bounds -repeat enforces.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(blob, &mf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &mf, nil
}

func main() {
	workload := flag.String("workload", "", "run this one workload and print the driver's JSON line (default: the whole suite)")
	seed := flag.Int64("seed", 1, "the only source of inputs, job mix and arrival schedule")
	seconds := flag.Float64("seconds", 0, "how long each run measures (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "with -workload: 0 measures end to end, 1 runs the traced per-layer pass")
	repeat := flag.Int("repeat", 1, "suite mode: run the suite this many times and fail if the runs disagree beyond the bounds")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := realMain(ctx, *workload, *seed, *seconds, *trace, *repeat)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(ctx context.Context, workload string, seed int64, seconds float64, trace, repeat int) error {
	nproc := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g > nproc {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs of this machine: oversubscribed timings mean nothing", g, nproc)
	}
	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if seconds <= 0 {
		seconds = float64(mf.RunSeconds)
	}
	d := time.Duration(seconds * float64(time.Second))
	e := &env{nproc: nproc}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	if workload != "" {
		w := findWorkload(workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", workload)
		}
		res, err := run(ctx, e, w, seed, d, trace != 0)
		if err != nil {
			return err
		}
		printResult(res)
		if res.Traced {
			if err := writeTrace(traceFile(w.name), res.spans); err != nil {
				return err
			}
		}
		if err := printDriverLine(res); err != nil {
			return err
		}
		if res.Failed > 0 {
			return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
		}
		return nil
	}
	return suite(ctx, e, mf, seed, d, repeat)
}

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	u := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			u[d.name] = d.unit
		}
	}
	return u
}()

// printResult prints every metric of a run by name, with its unit.
func printResult(res *result) {
	mode := "end to end, tracing off"
	defs := endToEnd
	if res.Traced {
		mode, defs = "per layer, traced pass", perLayer
	}
	fmt.Printf("== %s (%s): %d attempted, %d failed\n", res.Workload, mode, res.Attempted, res.Failed)
	for _, d := range defs {
		note := ""
		if d.name == "tail_ms" {
			note = fmt.Sprintf("  (p%d of %d samples)", int(res.Info["tail_percentile"]), int(res.Info["samples"]))
		}
		fmt.Printf("  %-30s %14.4f %s%s\n", d.name, res.Metrics[d.name], d.unit, note)
	}
	info := make([]string, 0, len(res.Info))
	for k := range res.Info {
		info = append(info, k)
	}
	sort.Strings(info)
	for _, k := range info {
		fmt.Printf("  info %-25s %14.4f\n", k, res.Info[k])
	}
	for _, f := range res.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
}

// printDriverLine prints the one JSON object the acceptance driver
// parses from the last line of standard output.
func printDriverLine(res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for k, v := range res.Metrics {
		out.Metrics[k] = value{v, unitOf[k]}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// environment is recorded in results.json so two result files can be
// told apart before their numbers are compared.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	SIMD       string `json:"simd"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
}

func describeEnvironment(ctx context.Context) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", SIMD: "generic", GoVersion: runtime.Version(), GitCommit: "unknown",
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		avx2, fma := false, false
		for _, line := range strings.Split(string(blob), "\n") {
			key, val, _ := strings.Cut(line, ":")
			switch strings.TrimSpace(key) {
			case "model name":
				env.CPU = strings.TrimSpace(val)
			case "flags":
				for _, f := range strings.Fields(val) {
					avx2 = avx2 || f == "avx2"
					fma = fma || f == "fma"
				}
			}
		}
		// internal/nla dispatches to its AVX2+FMA kernels on exactly this
		// condition.
		noasm := os.Getenv("BIDIAG_NOASM")
		switch {
		case noasm != "" && noasm != "0":
			env.SIMD = "generic (BIDIAG_NOASM set)"
		case runtime.GOARCH == "amd64" && avx2 && fma:
			env.SIMD = "avx2+fma"
		}
	}
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env
}

// suite runs every workload in both modes, repeat times over, prints the
// metrics, writes results.json and the trace files, and — with repeat
// above 1 — fails when two runs of the same code disagree by more than
// a metric's bound.
func suite(ctx context.Context, e *env, mf *manifest, seed int64, d time.Duration, repeat int) error {
	type runRecord struct {
		Results []*result `json:"results"`
	}
	doc := struct {
		Seed        int64       `json:"seed"`
		Seconds     float64     `json:"seconds"`
		Environment environment `json:"environment"`
		Runs        []runRecord `json:"runs"`
	}{Seed: seed, Seconds: d.Seconds(), Environment: describeEnvironment(ctx)}

	failed := 0
	for r := 0; r < max(repeat, 1); r++ {
		var rec runRecord
		for i := range workloads {
			w := &workloads[i]
			for _, traced := range []bool{false, true} {
				res, err := run(ctx, e, w, seed, d, traced)
				if err != nil {
					return err
				}
				printResult(res)
				failed += res.Failed
				rec.Results = append(rec.Results, res)
				if traced {
					if err := writeTrace(traceFile(w.name), res.spans); err != nil {
						return err
					}
				}
				runtime.GC() // the next workload starts from a collected heap
			}
		}
		doc.Runs = append(doc.Runs, rec)
	}

	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", path, traceFile("<workload>"))

	// Compare the runs: the largest and smallest value of each
	// end-to-end metric on each workload, as a share of the smallest.
	disagree := 0
	if repeat > 1 {
		fmt.Printf("== spread over %d runs (largest − smallest, as a share of the smallest)\n", repeat)
		for _, w := range workloads {
			for _, mm := range mf.EndToEnd {
				var vals []float64
				for _, rec := range doc.Runs {
					for _, res := range rec.Results {
						if res.Workload == w.name && !res.Traced {
							vals = append(vals, res.Metrics[mm.Name])
						}
					}
				}
				lo, hi := percentile(vals, 0), percentile(vals, 100)
				gap, verdict := (hi-lo)/lo, "ok"
				if gap > mm.Bound {
					verdict = "EXCEEDS BOUND"
					disagree++
				}
				fmt.Printf("  %-18s %-16s %6.2f%%  (bound %4.1f%%)  %s\n", w.name, mm.Name, 100*gap, 100*mm.Bound, verdict)
			}
		}
	}
	switch {
	case failed > 0:
		return fmt.Errorf("%d operations failed their correctness check", failed)
	case disagree > 0:
		return fmt.Errorf("%d metrics differ between runs by more than their bound", disagree)
	}
	return nil
}
