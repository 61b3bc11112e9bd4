// Package portseam enforces the fabric-port invariant of the banked
// memory model: functional datapath code reaches memory only through
// *membus.Port — the arbitrated functional port of a fabric region —
// and never through a region's Peek/Poke debug ports outside
// audit*/debug*/dump* files.
//
// The port is what makes the fabric's guarantees hold: every access
// that reaches a region through its Port is scheduled by the per-cycle
// bank/port arbiter (so window lengths are derived, not hand-charged),
// counted in the per-bank statistics, and exposed to the fault
// observer with its bank/port/cycle coordinates. A Peek or Poke on a
// functional path dodges all of that — the arbiter, the counters, the
// clock and every fault campaign — so the paper's cycle/access
// guarantees stop being measured. Audit and debug code is the
// deliberate exception: scrub engines observe the physical array
// through Peek precisely so they do not perturb the traffic accounting
// of the run they audit.
package portseam

import (
	"go/ast"
	"go/types"
	"strings"

	"wfqsort/internal/analysis"
)

// MembusPath is the import path of the memory fabric whose Port type is
// the only legal functional access path.
const MembusPath = "wfqsort/internal/membus"

// DatapathPackages lists the functional datapath packages the invariant
// applies to. Tests may add testdata packages loaded under these paths.
var DatapathPackages = map[string]bool{
	"wfqsort/internal/trie":       true,
	"wfqsort/internal/taglist":    true,
	"wfqsort/internal/transtable": true,
	"wfqsort/internal/core":       true,
}

// Analyzer is the portseam analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "portseam",
	Doc: "functional datapath memory traffic goes through *membus.Port; " +
		"Peek/Poke debug ports only in audit/debug files",
	Run: run,
}

// debugFile reports whether base is a file where debug-port access is
// legitimate: the audit/debug/dump files and tests.
func debugFile(base string) bool {
	return strings.HasPrefix(base, "audit") ||
		strings.HasPrefix(base, "debug") ||
		strings.HasPrefix(base, "dump") ||
		strings.HasSuffix(base, "_test.go")
}

// peekSignature reports whether sig is the debug-port shape
// func(int) (uint64, error) or func(int, uint64) error.
func peekSignature(sig *types.Signature) bool {
	p, r := sig.Params(), sig.Results()
	switch {
	case p.Len() == 1 && r.Len() == 2: // Peek
		return isInt(p.At(0).Type()) && isUint64(r.At(0).Type()) && isError(r.At(1).Type())
	case p.Len() == 2 && r.Len() == 1: // Poke
		return isInt(p.At(0).Type()) && isUint64(p.At(1).Type()) && isError(r.At(0).Type())
	}
	return false
}

func isInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int
}

func isUint64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

func isError(t types.Type) bool {
	return t.String() == "error"
}

func run(pass *analysis.Pass) error {
	if !DatapathPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		if debugFile(pass.Filename(f.Pos())) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Peek" && sel.Sel.Name != "Poke") {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || !peekSignature(sig) {
				return true
			}
			recv := pass.TypeOf(sel.X)
			if recv == nil {
				return true
			}
			if analysis.IsNamed(recv, MembusPath, "Region") || isDebugPortInterface(recv) {
				pass.Reportf(call.Pos(),
					"%s debug port used in functional file %s (uncounted, unclocked access); move to an audit*/debug* file or use the region's *membus.Port",
					fn.Name(), pass.Filename(call.Pos()))
			}
			return true
		})
	}
	return nil
}

// isDebugPortInterface reports whether t is an interface exposing a
// Peek/Poke-shaped method (a per-level peeker slice, for example).
func isDebugPortInterface(t types.Type) bool {
	iface, ok := analysis.Deref(t).Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		name := m.Name()
		if (name == "Peek" || name == "Poke") && peekSignature(m.Type().(*types.Signature)) {
			return true
		}
	}
	return false
}
