// Package cyclecharge guards the cycle-accounting contract of the
// hardware model. The paper's guarantees are stated in clock cycles, so
// the repo charges cycles in exactly one place — the membus fabric
// advances the clock as a side effect of port traffic — and everything
// layered above must keep its documented cycle budget honest. Two drift
// modes are flagged:
//
//  1. An exported operation that calls Clock.Advance with a bare
//     integer literal (or Clock.Tick) not backed by a documented cycle
//     cost in its doc comment. A magic number that disagrees with the
//     comment — or has no comment to agree with — is exactly how a
//     "4-cycle window" silently becomes 5 cycles without any test
//     noticing. Named constants (e.g. WindowCycles) are always fine;
//     the analyzer accepts a literal when the doc comment mentions the
//     same number of cycles or carries a "wfqlint:cycles N" marker.
//
//  2. Functional membus.Port Read/Write traffic inside audit*/debug*/
//     dump* files. Audit code models scrub engines with private read
//     ports: it must observe memory through Peek so it does not perturb
//     the access counters or the clock of the run it is auditing (the
//     mirror image of the portseam rule, which bans Peek from
//     functional files).
package cyclecharge

import (
	"go/ast"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"wfqsort/internal/analysis"
)

// HwsimPath is the clock-domain package.
const HwsimPath = "wfqsort/internal/hwsim"

// MembusPath is the memory fabric whose port arbiter charges the clock.
const MembusPath = "wfqsort/internal/membus"

// exemptPackages are the packages that implement the seam itself: hwsim
// owns the clock, the membus fabric charges it inside the port arbiter,
// and the fault injector deliberately interposes on raw memory.
var exemptPackages = map[string]bool{
	HwsimPath:                true,
	MembusPath:               true,
	"wfqsort/internal/fault": true,
}

// Analyzer is the cyclecharge analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "cyclecharge",
	Doc: "literal cycle charges must match their documented cost; audit " +
		"files must not issue clock-charged port traffic",
	Run: run,
}

var (
	cyclesDocRe    = regexp.MustCompile(`(\d+)(?:[ -](?:clock|extra|more)?[ -]?)?cycles?`)
	cyclesMarkerRe = regexp.MustCompile(`wfqlint:cycles\s+(\d+)`)
	cycleWordRe    = regexp.MustCompile(`(?i)\bcycles?\b`)
)

func run(pass *analysis.Pass) error {
	if exemptPackages[pass.Pkg.Path()] {
		return nil
	}
	if !importsHwsim(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if ast.IsExported(fd.Name.Name) {
				checkCharges(pass, fd)
			}
		}
		checkAuditTraffic(pass, f)
	}
	return nil
}

func importsHwsim(pkg *types.Package) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == HwsimPath {
			return true
		}
	}
	return false
}

// documentedCycles extracts every cycle count mentioned in a doc
// comment, plus whether the word "cycle" appears at all.
func documentedCycles(doc *ast.CommentGroup) (counts map[int]bool, mentions bool) {
	counts = map[int]bool{}
	if doc == nil {
		return counts, false
	}
	text := doc.Text()
	for _, m := range cyclesDocRe.FindAllStringSubmatch(text, -1) {
		if n, err := strconv.Atoi(m[1]); err == nil {
			counts[n] = true
		}
	}
	for _, m := range cyclesMarkerRe.FindAllStringSubmatch(text, -1) {
		if n, err := strconv.Atoi(m[1]); err == nil {
			counts[n] = true
		}
	}
	return counts, cycleWordRe.MatchString(text)
}

// literalInt unwraps conversions and returns the integer literal at the
// core of e, if any (uint64(4) -> 4). Named constants return ok=false:
// a shared constant is self-documenting and tracked by the type system.
func literalInt(e ast.Expr) (int, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.BasicLit:
			n, err := strconv.Atoi(x.Value)
			if err != nil {
				return 0, false
			}
			return n, true
		case *ast.CallExpr:
			// Possible conversion like uint64(4).
			if len(x.Args) != 1 {
				return 0, false
			}
			e = x.Args[0]
		default:
			return 0, false
		}
	}
}

func isClockMethod(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	t := pass.TypeOf(sel.X)
	return t != nil && analysis.IsNamed(t, HwsimPath, "Clock")
}

func checkCharges(pass *analysis.Pass, fd *ast.FuncDecl) {
	counts, mentions := documentedCycles(fd.Doc)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isClockMethod(pass, call, "Advance"):
			if len(call.Args) != 1 {
				return true
			}
			lit, ok := literalInt(call.Args[0])
			if !ok {
				return true
			}
			switch {
			case len(counts) == 0:
				pass.Reportf(call.Pos(),
					"Clock.Advance(%d) in exported %s charges an undocumented literal cycle cost; document it (\"costs %d cycles\" or wfqlint:cycles %d) or use a named constant",
					lit, fd.Name.Name, lit, lit)
			case !counts[lit]:
				pass.Reportf(call.Pos(),
					"Clock.Advance(%d) disagrees with the documented cycle cost of %s (doc mentions %s)",
					lit, fd.Name.Name, countsList(counts))
			}
		case isClockMethod(pass, call, "Tick"):
			if !mentions {
				pass.Reportf(call.Pos(),
					"Clock.Tick in exported %s charges a cycle its doc comment never mentions; document the cycle cost", fd.Name.Name)
			}
		}
		return true
	})
}

func countsList(counts map[int]bool) string {
	max := 0
	for n := range counts {
		if n > max {
			max = n
		}
	}
	var parts []string
	for n := 0; n <= max; n++ {
		if counts[n] {
			parts = append(parts, strconv.Itoa(n))
		}
	}
	return strings.Join(parts, ", ")
}

// checkAuditTraffic flags functional port traffic in audit-style files.
func checkAuditTraffic(pass *analysis.Pass, f *ast.File) {
	base := pass.Filename(f.Pos())
	if !strings.HasPrefix(base, "audit") && !strings.HasPrefix(base, "debug") &&
		!strings.HasPrefix(base, "dump") {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if name != "Read" && name != "Write" {
			return true
		}
		if t := pass.TypeOf(sel.X); t != nil && analysis.IsNamed(t, MembusPath, "Port") {
			pass.Reportf(call.Pos(),
				"%s issues clock-charged membus.Port traffic from audit file %s; scrub engines observe through Peek so the audited run's accounting is undisturbed",
				name, base)
		}
		return true
	})
}
