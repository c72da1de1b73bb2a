// Command benchguard gates the benchmark trend in CI: it compares a
// freshly measured BENCH_*.json record against the checked-in reference
// for the same configuration and exits non-zero when GFLOP/s regressed
// by more than the tolerance (25% by default, absorbing normal
// runner-to-runner noise while catching real performance losses).
//
//	benchguard -ref BENCH_ge2bnd_1024.json -new out/BENCH_ge2bnd_1024.json
//	benchguard -ref BENCH_bnd2bd_4096.json -new out/BENCH_bnd2bd_4096.json -tol 0.25
//	benchguard -ref BENCH_kernels_apply.json -new out/BENCH_kernels_apply.json
//	benchguard -ref BENCH_sched.json -new out/BENCH_sched.json
//	benchguard -ref BENCH_svd_1024.json -new out/BENCH_svd_1024.json
//
// Records with a kernels array (bidiagbench -stage apply) or a sched
// array (-stage sched) are gated entry by entry as well as on the
// aggregate rate, so one kernel or one dispatch case regressing cannot
// hide behind the others improving.
//
// Both records' GEMM micro-kernels (gemm_kernel, nla.GemmKernel of the
// measuring process) are printed beside the verdict. Where they differ,
// or a record does not name one, the comparison is cross-class: the
// gate applies all the same, but a rate change may be the kernel's.
//
// Improvements always pass; the checked-in record is only refreshed
// deliberately, so the trajectory of committed numbers changes only on
// purpose.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// currentSchema mirrors bidiagbench's record schema version. A
// committed reference written before the current schema still compares
// (the guarded figures are stable), but the guard says so out loud.
// Schema 3 adds the kernels array of per-kernel apply rates.
const currentSchema = 3

// record is the subset of the bidiagbench perf schema the guard needs.
type record struct {
	Experiment  string  `json:"experiment"`
	Schema      int     `json:"schema"`
	M           int     `json:"m"`
	N           int     `json:"n"`
	NB          int     `json:"nb"`
	KU          int     `json:"ku"`
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
	GFlops      float64 `json:"gflops"`
	TasksPerSec float64 `json:"tasks_per_sec"`
	GemmKernel  string  `json:"gemm_kernel"`

	// Kernels carries the per-kernel rates of a -stage apply record,
	// Sched the per-case dispatch costs of a -stage sched record. Each
	// reference entry is matched to the fresh record by name and gated
	// with the same tolerance as the headline rate, so one entry
	// regressing cannot hide behind the aggregate.
	Kernels []kernelRate `json:"kernels"`
	Sched   []schedCost  `json:"sched"`

	// Stages is the per-stage ledger (seconds) of a -stage svd record and
	// ValuesSeconds the SingularValues time it is compared with. A fresh
	// or checked record must carry them all (complete); only the headline
	// rate is gated, the short stages are too noisy to gate one by one.
	Stages        map[string]float64 `json:"stages"`
	ValuesSeconds float64            `json:"values_seconds"`

	// ResidualEps, OrthUEps and OrthVEps are a -stage svd record's
	// ‖A − UΣVᵀ‖/‖A‖, max|UᵀU − I| and max|VᵀV − I| in units of n·ε. A
	// fresh or checked record must keep each within contractEps.
	ResidualEps float64 `json:"residual_eps"`
	OrthUEps    float64 `json:"orth_u_eps"`
	OrthVEps    float64 `json:"orth_v_eps"`

	// Reconcile carries the model-vs-measured telemetry bidiagbench
	// attaches to shared-memory records, CommFit and CommReconcile the
	// measured α-β communication model of a commcal cluster record. All
	// three are machine- and load-dependent diagnostic data, not tracked
	// figures: the guard parses them for schema forward compatibility and
	// deliberately never compares them.
	Reconcile     json.RawMessage `json:"reconcile,omitempty"`
	CommFit       json.RawMessage `json:"comm_fit,omitempty"`
	CommReconcile json.RawMessage `json:"comm_reconcile,omitempty"`
}

// kernelRate mirrors one entry of a -stage apply record's kernels array.
type kernelRate struct {
	Kernel string  `json:"kernel"`
	GFlops float64 `json:"gflops"`
}

// schedCost mirrors one entry of a -stage sched record's sched array.
type schedCost struct {
	Case      string  `json:"case"`
	NsPerTask float64 `json:"ns_per_task"`
}

// rate returns the record's guarded figure: scheduler records track
// tasks/s, compute records GFLOP/s.
func (r record) rate() (float64, string) {
	if r.TasksPerSec > 0 {
		return r.TasksPerSec, "tasks/s"
	}
	return r.GFlops, "GFLOP/s"
}

// entry is one named per-entry figure of a record, as a rate (higher is
// better) so every kind of entry is gated the same way.
type entry struct {
	name, unit string
	rate       float64
}

// entries lists the record's per-kernel and per-case figures. A dispatch
// cost becomes the tasks one worker loop gets through per microsecond.
func (r record) entries() []entry {
	var es []entry
	for _, k := range r.Kernels {
		es = append(es, entry{k.Kernel, "GFLOP/s", k.GFlops})
	}
	for _, c := range r.Sched {
		rate := 0.0
		if c.NsPerTask > 0 {
			rate = 1e3 / c.NsPerTask
		}
		es = append(es, entry{c.Case, "tasks/µs", rate})
	}
	return es
}

// kernelLine names the GEMM micro-kernel of both records and says when
// they are not the same measured class.
func kernelLine(ref, got record) string {
	name := func(k string) string {
		if k == "" {
			return "(not recorded)"
		}
		return k
	}
	line := fmt.Sprintf("gemm kernel: reference %s, new %s", name(ref.GemmKernel), name(got.GemmKernel))
	if ref.GemmKernel == "" || ref.GemmKernel != got.GemmKernel {
		line += " — cross-class comparison: the rates come from different kernels or one is unnamed"
	}
	return line
}

func load(path string) (record, error) {
	var r record
	blob, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(blob, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if rate, _ := r.rate(); rate <= 0 {
		return r, fmt.Errorf("%s: missing or non-positive gflops / tasks_per_sec", path)
	}
	// Parsed for forward compatibility, never compared.
	r.Reconcile, r.CommFit, r.CommReconcile = nil, nil, nil
	return r, nil
}

// svdStages are the stages a -stage svd record must account for.
var svdStages = []string{"ge2bnd_rec", "extract", "bnd2bd_logged", "form_qp", "bdsqr_values", "bdsqr_vectors", "back_apply"}

// complete checks that an svd record carries every stage of today's
// ledger. It applies to fresh and checked records, not to a reference,
// which may predate a stage and is only compared on its rate.
func (r record) complete(path string) error {
	if r.Experiment != "svd" {
		return nil
	}
	for _, stage := range svdStages {
		if r.Stages[stage] <= 0 {
			return fmt.Errorf("%s: svd record without a positive stages.%s", path, stage)
		}
	}
	if r.ValuesSeconds <= 0 {
		return fmt.Errorf("%s: svd record without values_seconds", path)
	}
	return nil
}

// contractEps is the numerical contract of the SVD, in n·ε: residual and
// both orthogonality losses must stay at or below it.
const contractEps = 16

// accurate checks a record's residual and orthogonality against the
// contract. Like complete it applies to fresh and checked records only:
// a reference that broke the contract does not excuse a fresh one, and a
// fresh one that keeps it does not need the reference's figures.
func (r record) accurate(path string) error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"residual_eps", r.ResidualEps}, {"orth_u_eps", r.OrthUEps}, {"orth_v_eps", r.OrthVEps}} {
		if !(f.v <= contractEps) {
			return fmt.Errorf("%s: %s = %g breaks the numerical contract (≤ %d n·ε)", path, f.name, f.v, contractEps)
		}
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command; it returns the exit status: 0 when the fresh record
// holds (or the checked one is valid), 1 on a regression or a fresh or
// checked record outside the numerical contract, 2 on a bad command line,
// an unreadable or incomplete record, or a configuration mismatch.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	refPath := fs.String("ref", "", "checked-in reference BENCH_*.json")
	newPath := fs.String("new", "", "freshly measured BENCH_*.json")
	checkPath := fs.String("check", "", "schema-validate one BENCH_*.json and exit (no comparison)")
	tol := fs.Float64("tol", 0.25, "maximum allowed relative GFLOP/s regression")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// -check accepts records whose figures are environment-bound rather
	// than trend-tracked (the commcal cluster record): the committed file
	// must parse with a positive rate, but is never compared to a fresh
	// measurement.
	if *checkPath != "" {
		if *refPath != "" || *newPath != "" {
			fmt.Fprintln(stderr, "benchguard: -check excludes -ref/-new")
			return 2
		}
		r, err := load(*checkPath)
		if err == nil {
			err = r.complete(*checkPath)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if err := r.accurate(*checkPath); err != nil {
			fmt.Fprintln(stderr, "benchguard:", err)
			return 1
		}
		if r.Schema < currentSchema {
			fmt.Fprintf(stderr, "benchguard: warning: %s has schema %d, current is %d\n",
				*checkPath, r.Schema, currentSchema)
		}
		rate, unit := r.rate()
		fmt.Fprintf(stdout, "%s: %s %dx%d schema %d, %.2f %s — schema OK\n",
			*checkPath, r.Experiment, r.M, r.N, r.Schema, rate, unit)
		return 0
	}
	if *refPath == "" || *newPath == "" {
		fmt.Fprintln(stderr, "usage: benchguard -ref <committed.json> -new <measured.json> [-tol 0.25] | benchguard -check <committed.json>")
		return 2
	}
	ref, err := load(*refPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	got, err := load(*newPath)
	if err == nil {
		err = got.complete(*newPath)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if ref.Schema < currentSchema {
		// Warn, don't fail: old records stay comparable, but the noise
		// nudges whoever refreshes the reference next to re-measure.
		fmt.Fprintf(stderr, "benchguard: warning: reference %s has schema %d, current is %d; consider re-measuring the committed record\n",
			*refPath, ref.Schema, currentSchema)
	}
	if ref.Experiment != got.Experiment || ref.M != got.M || ref.N != got.N ||
		ref.NB != got.NB || ref.KU != got.KU || ref.Workers != got.Workers {
		fmt.Fprintf(stderr, "benchguard: configurations differ: ref %+v vs new %+v\n", ref, got)
		return 2
	}
	refRate, unit := ref.rate()
	gotRate, _ := got.rate()
	ratio := gotRate / refRate
	fmt.Fprintf(stdout, "%s %dx%d: %.2f %s vs reference %.2f (%.0f%%)\n",
		ref.Experiment, ref.M, ref.N, gotRate, unit, refRate, 100*ratio)
	fmt.Fprintln(stdout, kernelLine(ref, got))
	failed := false
	if err := got.accurate(*newPath); err != nil {
		fmt.Fprintln(stderr, "benchguard:", err)
		failed = true
	}
	if ratio < 1-*tol {
		fmt.Fprintf(stderr, "benchguard: %s regressed %.0f%% (> %.0f%% allowed)\n",
			unit, 100*(1-ratio), 100**tol)
		failed = true
	}
	// Per-entry gates of an apply or sched record: every entry the
	// reference tracks must be present in the fresh record and within
	// tolerance.
	fresh := map[string]entry{}
	for _, e := range got.entries() {
		fresh[e.name] = e
	}
	for _, re := range ref.entries() {
		ne, ok := fresh[re.name]
		if !ok {
			fmt.Fprintf(stderr, "benchguard: %s in reference but missing from new record\n", re.name)
			failed = true
			continue
		}
		if re.rate <= 0 || ne.rate <= 0 {
			fmt.Fprintf(stderr, "benchguard: %s has a non-positive rate (ref %.2f, new %.2f)\n",
				re.name, re.rate, ne.rate)
			failed = true
			continue
		}
		er := ne.rate / re.rate
		fmt.Fprintf(stdout, "  %-18s: %.2f %s vs reference %.2f (%.0f%%)\n",
			re.name, ne.rate, re.unit, re.rate, 100*er)
		if er < 1-*tol {
			fmt.Fprintf(stderr, "benchguard: %s regressed %.0f%% (> %.0f%% allowed)\n",
				re.name, 100*(1-er), 100**tol)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}
