package portseam_test

import (
	"path/filepath"
	"testing"

	"wfqsort/internal/analysis"
	"wfqsort/internal/analysis/portseam"
)

func TestPortseam(t *testing.T) {
	dir := filepath.Join("testdata", "datapath")
	// Load the testdata under a datapath import path so the invariant
	// applies to it.
	analysis.RunTest(t, dir, "wfqsort/internal/taglist", portseam.Analyzer)
}

func TestPortseamScope(t *testing.T) {
	// The same sources loaded under a non-datapath path produce no
	// diagnostics: infrastructure (membus, fault, benches) may use the
	// debug ports anywhere.
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "datapath"), "wfqsort/internal/notdatapath")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := analysis.Run([]*analysis.Analyzer{portseam.Analyzer}, pkg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("out-of-scope package produced %d diagnostics, first: %s", len(diags), diags[0])
	}
}
