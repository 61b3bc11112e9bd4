package cyclecharge_test

import (
	"path/filepath"
	"testing"

	"wfqsort/internal/analysis"
	"wfqsort/internal/analysis/cyclecharge"
)

func TestCyclecharge(t *testing.T) {
	dir := filepath.Join("testdata", "clocked")
	analysis.RunTest(t, dir, "wfqsort/internal/cyclecharge_testdata", cyclecharge.Analyzer)
}

func TestCyclechargeExemptsSeamPackages(t *testing.T) {
	// hwsim owns the clock and the fault injector interposes on raw
	// memory; both are exempt.
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	for _, path := range []string{"wfqsort/internal/hwsim", "wfqsort/internal/fault"} {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		diags, err := analysis.Run([]*analysis.Analyzer{cyclecharge.Analyzer}, pkg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if len(diags) != 0 {
			t.Fatalf("%s: exempt package produced %d diagnostics, first: %s", path, len(diags), diags[0])
		}
	}
}
