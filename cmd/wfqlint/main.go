// Command wfqlint runs the repository's invariant analyzers over Go
// packages. Four hardware-model analyzers guard the cycle-accurate
// core:
//
//	portseam      — datapath memory traffic goes through *membus.Port;
//	                region Peek/Poke debug ports only in audit/debug files
//	errcorrupt    — corruption errors wrap hwsim.ErrCorrupt with %w and
//	                are classified with errors.Is
//	determinism   — no wall-clock time, no global math/rand, no
//	                order-leaking map iteration
//	cyclecharge   — literal cycle charges match documented costs; audit
//	                files issue no clock-charged Port traffic
//
// Four concurrency-and-lifecycle analyzers guard the parallel serving
// runtime:
//
//	laneconfine   — lane fabrics/ports/clocks/sorters owned by one
//	                datapath goroutine; no captured lane resources,
//	                cross-lane indexing, or unsynchronized shared writes
//	goroutinelife — every go statement in the runtime packages is
//	                joinable from a shutdown path
//	locksafe      — no blocking ops while a mutex is held; cond.Wait in
//	                a loop; no mixed atomic/plain field access
//	conservation  — the engine's packet-conservation ledger is atomic
//	                and every Stats counter joins the assertion or is
//	                justifiably exempt
//
// Usage:
//
//	go run ./cmd/wfqlint ./...
//	go run ./cmd/wfqlint -only portseam,errcorrupt ./internal/...
//	go run ./cmd/wfqlint -json ./... > diagnostics.json
//
// Exit status: 0 clean, 1 diagnostics reported (including stale ignore
// directives), 2 operational error (bad flags, unknown analyzer, load
// or parse failure). Suppress a finding with a justified directive on
// or above the line:
//
//	//wfqlint:ignore <analyzer> <reason>
//
// A directive that suppresses nothing is stale and itself becomes a
// diagnostic: either the finding it excused is gone, or the analyzer
// name is a typo silently waving something through. Stale detection
// runs only when the full analyzer set does (an -only run cannot tell
// an unused directive from one owned by an analyzer that did not run).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"wfqsort/internal/analysis"
	"wfqsort/internal/analysis/conservation"
	"wfqsort/internal/analysis/cyclecharge"
	"wfqsort/internal/analysis/determinism"
	"wfqsort/internal/analysis/errcorrupt"
	"wfqsort/internal/analysis/goroutinelife"
	"wfqsort/internal/analysis/laneconfine"
	"wfqsort/internal/analysis/locksafe"
	"wfqsort/internal/analysis/portseam"
)

// All is the full analyzer suite, in reporting order.
var All = []*analysis.Analyzer{
	portseam.Analyzer,
	errcorrupt.Analyzer,
	determinism.Analyzer,
	cyclecharge.Analyzer,
	laneconfine.Analyzer,
	goroutinelife.Analyzer,
	locksafe.Analyzer,
	conservation.Analyzer,
}

func main() {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfqlint: %v\n", err)
		os.Exit(2)
	}
	os.Exit(run(dir, os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is one diagnostic in -json output.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonDirective is one suppression directive in -json output.
type jsonDirective struct {
	File      string `json:"file"`
	Line      int    `json:"line"`
	Analyzer  string `json:"analyzer"`
	Reason    string `json:"reason"`
	FileScope bool   `json:"fileScope"`
	Used      bool   `json:"used"`
	Stale     bool   `json:"stale"`
}

// jsonReport is the -json document: diagnostics plus the suppression
// budget, so CI can archive both in one artifact.
type jsonReport struct {
	Packages    int              `json:"packages"`
	Analyzers   []string         `json:"analyzers"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
	Budget      map[string]int   `json:"budget"`
	Directives  []jsonDirective  `json:"directives"`
}

// run is the testable entry point: it parses args, runs the checkers
// against packages resolved relative to dir, writes reports to stdout
// and diagnostics/summaries to stderr, and returns the exit status.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wfqlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	verbose := fs.Bool("v", false, "print per-run summary")
	asJSON := fs.Bool("json", false, "emit a machine-readable JSON report on stdout")
	budget := fs.Bool("budget", false, "print the suppression budget (directives per analyzer)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := All
	full := true
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range All {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "wfqlint: unknown analyzer %q (have", name)
				for _, b := range All {
					fmt.Fprintf(stderr, " %s", b.Name)
				}
				fmt.Fprintln(stderr, ")")
				return 2
			}
			analyzers = append(analyzers, a)
		}
		full = len(analyzers) == len(All)
	}

	res, err := analysis.Check(analyzers, dir, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "wfqlint: %v\n", err)
		return 2
	}

	// Stale-ignore detection needs the full suite: with -only, a
	// directive owned by a skipped analyzer is indistinguishable from a
	// dead one.
	ran := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		ran = append(ran, a.Name)
	}
	known := make([]string, 0, len(All))
	for _, a := range All {
		known = append(known, a.Name)
	}
	var stale []*analysis.Directive
	if full {
		stale = res.Stale(ran, known)
	}

	diags := res.Diagnostics
	for _, d := range stale {
		diags = append(diags, analysis.Diagnostic{
			Pos:      d.Pos,
			Analyzer: "directive",
			Message: fmt.Sprintf("stale wfqlint:ignore %s directive: it suppresses nothing — remove it or fix the analyzer name",
				d.Analyzer),
		})
	}

	if *asJSON {
		writeJSON(stdout, res, ran, diags, stale)
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if *budget {
			writeBudget(stdout, res)
		}
	}
	if *verbose {
		fmt.Fprintf(stderr, "wfqlint: %d packages, %d analyzers, %d diagnostics, %d directives (%d stale)\n",
			res.Packages, len(analyzers), len(diags), len(res.Directives), len(stale))
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// writeBudget prints the suppression budget in analyzer order.
func writeBudget(w io.Writer, res *analysis.CheckResult) {
	b := res.Budget()
	names := make([]string, 0, len(b))
	for name := range b {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "suppression budget: %d directives\n", len(res.Directives))
	for _, name := range names {
		fmt.Fprintf(w, "  %-14s %d\n", name, b[name])
	}
}

// writeJSON emits the machine-readable report.
func writeJSON(w io.Writer, res *analysis.CheckResult, ran []string, diags []analysis.Diagnostic, stale []*analysis.Directive) {
	staleSet := map[*analysis.Directive]bool{}
	for _, d := range stale {
		staleSet[d] = true
	}
	rep := jsonReport{
		Packages:    res.Packages,
		Analyzers:   ran,
		Diagnostics: []jsonDiagnostic{},
		Budget:      res.Budget(),
		Directives:  []jsonDirective{},
	}
	for _, d := range diags {
		rep.Diagnostics = append(rep.Diagnostics, jsonDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	for _, d := range res.Directives {
		rep.Directives = append(rep.Directives, jsonDirective{
			File:      d.Pos.Filename,
			Line:      d.Pos.Line,
			Analyzer:  d.Analyzer,
			Reason:    d.Reason,
			FileScope: d.FileScope,
			Used:      d.Used,
			Stale:     staleSet[d],
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
}
