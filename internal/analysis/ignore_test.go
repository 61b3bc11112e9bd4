package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parsePass parses src under filename src.go and returns a Pass for an
// analyzer named name, ready for buildIgnores.
func parsePass(t *testing.T, name, src string) (*Pass, *[]Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	diags := &[]Diagnostic{}
	return &Pass{
		Analyzer: &Analyzer{Name: name},
		Fset:     fset,
		Files:    []*ast.File{f},
		diags:    diags,
	}, diags
}

func TestIgnoreFileDirective(t *testing.T) {
	const src = `//wfqlint:ignore-file determinism wall-clock by design
package p

func F() {}
`
	p, diags := parsePass(t, "determinism", src)
	p.buildIgnores()
	if len(*diags) != 0 {
		t.Fatalf("unexpected diagnostics from buildIgnores: %v", *diags)
	}
	pos := token.Position{Filename: "src.go", Line: 4}
	if !p.ignored(pos) {
		t.Errorf("line 4 not suppressed by file-scope directive")
	}
	if p.ignored(token.Position{Filename: "other.go", Line: 4}) {
		t.Errorf("file-scope directive leaked into other.go")
	}

	// The directive names one analyzer; others must still report.
	q, _ := parsePass(t, "portseam", src)
	q.buildIgnores()
	if q.ignored(pos) {
		t.Errorf("determinism-only directive suppressed portseam")
	}
}

func TestIgnoreFileDirectiveAll(t *testing.T) {
	const src = `//wfqlint:ignore-file all generated harness code
package p
`
	p, _ := parsePass(t, "cyclecharge", src)
	p.buildIgnores()
	if !p.ignored(token.Position{Filename: "src.go", Line: 2}) {
		t.Errorf(`"all" file-scope directive did not suppress cyclecharge`)
	}
}

func TestIgnoreFileDirectiveRequiresReason(t *testing.T) {
	const src = `//wfqlint:ignore-file determinism
package p
`
	p, diags := parsePass(t, "determinism", src)
	p.buildIgnores()
	if len(*diags) != 1 || !strings.Contains((*diags)[0].Message, "without a justification") {
		t.Fatalf("diagnostics = %v, want one unjustified-directive report", *diags)
	}
	if p.ignored(token.Position{Filename: "src.go", Line: 2}) {
		t.Errorf("unjustified directive must not suppress anything")
	}
}

func TestIgnoreLineDirectiveStillScoped(t *testing.T) {
	const src = `package p

//wfqlint:ignore determinism only this statement is wall-clock
var A = 1
var B = 2
`
	p, diags := parsePass(t, "determinism", src)
	p.buildIgnores()
	if len(*diags) != 0 {
		t.Fatalf("unexpected diagnostics from buildIgnores: %v", *diags)
	}
	if !p.ignored(token.Position{Filename: "src.go", Line: 4}) {
		t.Errorf("line below the directive not suppressed")
	}
	if p.ignored(token.Position{Filename: "src.go", Line: 5}) {
		t.Errorf("line-scoped directive suppressed two lines below")
	}
}
