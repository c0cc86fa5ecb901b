package ir_test

import (
	"os"
	"path/filepath"
	"testing"

	"hintm/internal/classify"
	"hintm/internal/ir"
	"hintm/internal/workloads"
)

// FuzzParse checks the printer/parser pair on arbitrary text: whatever
// Parse accepts must print to text that parses again and prints
// identically, so a module survives any number of dump/edit/reload cycles
// through tirc. The corpus is every workload's classified module (safe bits
// included) and the example .tir files. `make fuzz-short` runs it for 10s.
func FuzzParse(f *testing.F) {
	for _, spec := range workloads.AllWithExtras() {
		m := spec.Build(spec.DefaultThreads, workloads.Small)
		if _, err := classify.Run(m); err != nil {
			f.Fatalf("%s: classify: %v", spec.Name, err)
		}
		f.Add(m.String())
	}
	files, err := filepath.Glob("../../examples/*/*.tir")
	if err != nil || len(files) == 0 {
		f.Fatalf("no example .tir files found (err %v)", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		printed := m.String()
		again, err := ir.Parse(printed)
		if err != nil {
			t.Fatalf("printed module does not parse: %v\n%s", err, printed)
		}
		if got := again.String(); got != printed {
			t.Fatalf("print/parse/print not stable:\n--- first ---\n%s\n--- second ---\n%s", printed, got)
		}
	})
}
