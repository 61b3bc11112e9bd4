// Package analysis is a self-contained, dependency-free re-implementation
// of the golang.org/x/tools/go/analysis driver surface, built on the
// standard library's go/ast, go/parser and go/types. It exists because
// this repository vendors nothing: the wfqlint analyzers (portseam,
// errcorrupt, determinism, cyclecharge) encode hardware-model invariants
// that the paper states in clock cycles and memory accesses, and they
// must run anywhere the repo builds — including offline CI — with no
// module downloads.
//
// The API mirrors x/tools deliberately (Analyzer, Pass, Diagnostic, a
// want-comment test harness in analysistest.go) so the suite can be
// ported to the real framework by changing imports if the dependency
// ever becomes available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //wfqlint:ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
	idx   *directiveIndex
}

// Directive is one parsed //wfqlint:ignore or //wfqlint:ignore-file
// comment, with a usage bit recording whether it suppressed at least one
// diagnostic during the run. Unused directives are the raw material of
// the stale-ignore report: a suppression that suppresses nothing is
// either a typo or a fixed finding whose excuse outlived it.
type Directive struct {
	Pos       token.Position
	Analyzer  string // analyzer name or "all"
	Reason    string
	FileScope bool
	Used      bool
}

// directiveIndex is the per-package lookup structure for directives,
// shared by every analyzer pass over the package so one suppression is
// parsed (and usage-tracked) exactly once.
type directiveIndex struct {
	byLine map[string]map[int][]*Directive // file -> line -> directives
	byFile map[string][]*Directive         // file -> whole-file directives
	list   []*Directive
}

// ignoreRe is anchored to the start of the comment so prose that merely
// mentions a "//wfqlint:ignore" directive is not parsed as one.
var ignoreRe = regexp.MustCompile(`^//\s*wfqlint:ignore\s+(\S+)\s*(.*)`)

// ignoreFileRe matches the file-scope variant: a //wfqlint:ignore-file
// directive suppresses the named analyzer across its whole file. It is
// for files that are wall-clock by design (the serving engine, daemons,
// benchmarks), where a per-line directive on every timestamp would bury
// the signal; the justification is still mandatory.
var ignoreFileRe = regexp.MustCompile(`^//\s*wfqlint:ignore-file\s+(\S+)\s*(.*)`)

// parseDirectives indexes every //wfqlint:ignore directive by file and
// line and every //wfqlint:ignore-file directive by file. A line
// directive suppresses matching diagnostics on its own line and on the
// line immediately below it (so it can sit above the flagged statement);
// a file directive suppresses them anywhere in its file. Directives with
// an empty reason are not indexed and are reported through report: a
// suppression must say why.
func parseDirectives(fset *token.FileSet, files []*ast.File, report func(token.Position)) *directiveIndex {
	idx := &directiveIndex{
		byLine: make(map[string]map[int][]*Directive),
		byFile: make(map[string][]*Directive),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				fileScope := false
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					m = ignoreFileRe.FindStringSubmatch(c.Text)
					fileScope = true
				}
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				dir := &Directive{
					Pos:       pos,
					Analyzer:  m[1],
					Reason:    strings.TrimSpace(m[2]),
					FileScope: fileScope,
				}
				if dir.Reason == "" {
					report(pos)
					continue
				}
				idx.list = append(idx.list, dir)
				if fileScope {
					idx.byFile[pos.Filename] = append(idx.byFile[pos.Filename], dir)
					continue
				}
				byLine := idx.byLine[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*Directive)
					idx.byLine[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], dir)
			}
		}
	}
	return idx
}

// buildIgnores parses this pass's files into a pass-local directive
// index, reporting unjustified directives under the pass's analyzer.
// Shared multi-analyzer runs use RunPackage, which parses once and
// shares the index across passes instead.
func (p *Pass) buildIgnores() {
	p.idx = parseDirectives(p.Fset, p.Files, func(pos token.Position) {
		*p.diags = append(*p.diags, Diagnostic{
			Pos:      pos,
			Analyzer: p.Analyzer.Name,
			Message:  "wfqlint:ignore directive without a justification",
		})
	})
}

// ignored reports whether a diagnostic at pos is suppressed by a
// directive on the same line or the line above, or by a file-scope
// directive anywhere in the file. A directive that suppresses is marked
// used for the stale-ignore report.
func (p *Pass) ignored(pos token.Position) bool {
	for _, d := range p.idx.byFile[pos.Filename] {
		if d.Analyzer == "all" || d.Analyzer == p.Analyzer.Name {
			d.Used = true
			return true
		}
	}
	byLine := p.idx.byLine[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[line] {
			if d.Analyzer == "all" || d.Analyzer == p.Analyzer.Name {
				d.Used = true
				return true
			}
		}
	}
	return false
}

// Reportf records a diagnostic at pos unless an ignore directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.ignored(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Filename returns the base file name holding pos.
func (p *Pass) Filename(pos token.Pos) string {
	full := p.Fset.Position(pos).Filename
	if i := strings.LastIndexByte(full, '/'); i >= 0 {
		return full[i+1:]
	}
	return full
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return p.TypesInfo.Defs[id]
}

// Run applies each analyzer to pkg and returns the diagnostics sorted by
// position.
func Run(analyzers []*Analyzer, pkg *Package) ([]Diagnostic, error) {
	diags, _, err := RunPackage(analyzers, pkg)
	return diags, err
}

// RunPackage applies each analyzer to pkg and returns the diagnostics
// sorted by position, plus every suppression directive parsed from the
// package with its usage bit set — the input of the stale-ignore
// report. The directive index is parsed once and shared by all passes,
// so an unjustified directive is reported exactly once (under the
// synthetic analyzer name "directive") no matter how many analyzers run.
func RunPackage(analyzers []*Analyzer, pkg *Package) ([]Diagnostic, []*Directive, error) {
	var diags []Diagnostic
	idx := parseDirectives(pkg.Fset, pkg.Files, func(pos token.Position) {
		diags = append(diags, Diagnostic{
			Pos:      pos,
			Analyzer: "directive",
			Message:  "wfqlint:ignore directive without a justification",
		})
	})
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &diags,
			idx:       idx,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, idx.list, nil
}

// --- shared type helpers used by the analyzers ---

// Deref removes one level of pointer indirection.
func Deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// IsNamed reports whether t (after dereferencing) is the named type
// pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	n, ok := Deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// CalleeFunc resolves the called function or method of call, or nil.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// IsPkgFunc reports whether call invokes the package-level function
// pkgPath.name (not a method).
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := CalleeFunc(info, call)
	if f == nil || f.Name() != name || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// ConstString returns the compile-time string value of e, if any.
func ConstString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
