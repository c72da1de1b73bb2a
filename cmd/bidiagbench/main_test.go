package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestStageTable runs every -stage entry once at a tiny size and checks
// the record it writes: current schema, the stage's name, a positive rate.
func TestStageTable(t *testing.T) {
	dir := t.TempDir()
	for _, name := range sortedKeys(stages) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".json")
			args := []string{"-stage", name, "-m", "64", "-nb", "16", "-ku", "8", "-workers", "2", "-reps", "1", "-json", path}
			if err := run(args); err != nil {
				t.Fatal(err)
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var rec struct {
				Experiment  string  `json:"experiment"`
				Schema      int     `json:"schema"`
				GFlops      float64 `json:"gflops"`
				TasksPerSec float64 `json:"tasks_per_sec"`
			}
			if err := json.Unmarshal(blob, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Schema != currentSchema || rec.Experiment != name || max(rec.GFlops, rec.TasksPerSec) <= 0 {
				t.Fatalf("record %+v: want schema %d, experiment %q and a positive rate", rec, currentSchema, name)
			}
		})
	}
}

// TestUnknownNames: a -stage or -exp name outside the tables is an error.
func TestUnknownNames(t *testing.T) {
	for _, args := range [][]string{
		{"-stage", "nope"},
		{"-exp", "nope"},
		{"-exp", "critpaths,nope", "-out", t.TempDir()},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}
