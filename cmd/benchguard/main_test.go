package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type rec = map[string]any

func ge2bnd(gflops float64) rec {
	return rec{"experiment": "ge2bnd", "schema": currentSchema, "m": 1024, "n": 1024, "nb": 64, "workers": 2, "gflops": gflops}
}

func apply(rates ...float64) rec {
	names := []string{"GEQRT", "TSMQR", "TTQRT"}
	var ks []rec
	for i, r := range rates {
		ks = append(ks, rec{"kernel": names[i], "gflops": r})
	}
	return rec{"experiment": "apply", "schema": currentSchema, "m": 64, "n": 64, "nb": 64, "workers": 1, "gflops": 10.0, "kernels": ks}
}

func schedRec(chainNs float64) rec {
	return rec{"experiment": "sched", "schema": currentSchema, "workers": 4, "tasks_per_sec": 1e7,
		"sched": []rec{{"case": "empty/run/w1", "ns_per_task": 60.0}, {"case": "chain/run/w1", "ns_per_task": chainNs}}}
}

func svdRec(stages ...string) rec {
	st := rec{}
	for _, s := range stages {
		st[s] = 0.1
	}
	return rec{"experiment": "svd", "schema": currentSchema, "m": 1024, "n": 1024, "nb": 64, "workers": 2,
		"gflops": 25.0, "values_seconds": 0.2, "stages": st}
}

// svdAcc is a complete svd record with the given residual and
// orthogonality figures (n·ε).
func svdAcc(residual, orthU, orthV float64) rec {
	r := svdRec(svdStages...)
	r["residual_eps"], r["orth_u_eps"], r["orth_v_eps"] = residual, orthU, orthV
	return r
}

// kern names the GEMM micro-kernel a record was measured on.
func kern(r rec, kernel string) rec {
	r["gemm_kernel"] = kernel
	return r
}

func TestRun(t *testing.T) {
	allStages := svdStages
	noValues := []string{"ge2bnd_rec", "extract", "bnd2bd_logged", "form_qp", "bdsqr_vectors", "back_apply"}
	wider := ge2bnd(10)
	wider["workers"] = 4
	cases := []struct {
		name     string
		ref, new rec // a nil ref runs -check on new
		want     int
		say      string // printed on stdout, when set
	}{
		{"identical", ge2bnd(10), ge2bnd(10), 0, ""},
		{"improvement", ge2bnd(10), ge2bnd(14), 0, ""},
		{"headline drop 30%", ge2bnd(10), ge2bnd(7), 1, ""},
		{"kernel entry missing", apply(5, 15, 3), apply(5, 15), 1, ""},
		{"kernel regresses, aggregate holds", apply(5, 15, 3), apply(5, 15, 2), 1, ""},
		{"sched case regresses, aggregate holds", schedRec(75), schedRec(120), 1, ""},
		{"configuration mismatch", ge2bnd(10), wider, 2, ""},
		{"svd record with every stage", svdRec(allStages...), svdRec(allStages...), 0, ""},
		{"check: complete svd record", nil, svdRec(allStages...), 0, ""},
		{"check: svd record without bdsqr_values", nil, svdRec(noValues...), 2, ""},
		{"fresh svd record without bdsqr_values", svdRec(allStages...), svdRec(noValues...), 2, ""},
		{"check: just under the contract", nil, svdAcc(15.99, 15.99, 15.99), 0, ""},
		{"check: residual just over the contract", nil, svdAcc(16.01, 0.8, 0.8), 1, ""},
		{"check: orth_v just over the contract", nil, svdAcc(0.2, 0.8, 16.01), 1, ""},
		{"fresh just under the contract", svdAcc(0.2, 0.8, 0.8), svdAcc(15.99, 15.99, 15.99), 0, ""},
		{"fresh orth_u just over, whatever the reference", svdAcc(20, 20, 20), svdAcc(0.2, 16.01, 0.8), 1, ""},
		{"same gemm kernel", kern(ge2bnd(10), "avx2-8x4"), kern(ge2bnd(10), "avx2-8x4"), 0,
			"gemm kernel: reference avx2-8x4, new avx2-8x4\n"},
		{"cross-kernel pair", kern(ge2bnd(10), "avx2-8x4"), kern(ge2bnd(14), "avx512-16x8"), 0,
			"gemm kernel: reference avx2-8x4, new avx512-16x8 — cross-class"},
		{"cross-kernel pair keeps the gate", kern(ge2bnd(10), "avx512-16x8"), kern(ge2bnd(7), "avx2-8x4"), 1, "cross-class"},
		{"reference without the field", ge2bnd(10), kern(ge2bnd(10), "avx512-16x8"), 0,
			"gemm kernel: reference (not recorded), new avx512-16x8 — cross-class"},
		{"neither names a kernel", ge2bnd(10), ge2bnd(10), 0, "(not recorded), new (not recorded) — cross-class"},
	}
	dir := t.TempDir()
	write := func(name string, r rec) string {
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for i, c := range cases {
		newPath := write(fmt.Sprintf("new-%d.json", i), c.new)
		args := []string{"-check", newPath}
		if c.ref != nil {
			args = []string{"-ref", write(fmt.Sprintf("ref-%d.json", i), c.ref), "-new", newPath}
		}
		var out strings.Builder
		if got := run(args, &out, io.Discard); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
		if !strings.Contains(out.String(), c.say) {
			t.Errorf("%s: stdout %q lacks %q", c.name, out.String(), c.say)
		}
	}
}
