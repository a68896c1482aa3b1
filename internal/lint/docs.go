package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// exportedDocRel lists the module-relative package directories whose
// *exported symbols* must each carry a doc comment, on top of the
// package-doc rule that applies everywhere. These are the packages other
// code copies its concurrency discipline from — undocumented surface
// there is a determinism bug waiting to happen. internal/mgmt/policy is
// held to the same floor: its exported surface *is* the policy-spec
// grammar, and an undocumented symbol there is an undocumented knob. So
// are internal/invariant and internal/chaos: a violation or scenario
// report is only as actionable as the docs on the symbols it names.
// internal/sim is the root of all of it: the
// Timer lifecycle rules (DESIGN.md §15) and the dispatch-order
// contract live in its godoc, and every layer schedules through it.
var exportedDocRel = map[string]bool{
	"internal/sim":         true,
	"internal/runpool":     true,
	"internal/lint":        true,
	"internal/telemetry":   true,
	"internal/mgmt/policy": true,
	"internal/mgmt/slo":    true,
	"internal/invariant":   true,
	"internal/chaos":       true,
}

// checkDocs is the generalization of the repository's original doc-lint
// tests: every package must have a package doc comment (the one-paragraph
// contract a reader gets from `go doc`), and the contract-critical
// packages listed in exportedDocRel must document every exported
// top-level symbol.
func checkDocs(m *Module, p *Package) []Finding {
	var out []Finding
	documented := false
	for _, f := range p.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			documented = true
			break
		}
	}
	if !documented && len(p.Files) > 0 {
		file, line := m.relFile(p.Files[0].Name.Pos())
		out = append(out, Finding{File: file, Line: line, Check: "docs",
			Message: fmt.Sprintf("package %s has no package doc comment", p.Types.Name())})
	}
	if !exportedDocRel[p.Rel] {
		return out
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && !hasDoc(d.Doc) {
					file, line := m.relFile(d.Name.Pos())
					out = append(out, Finding{File: file, Line: line, Check: "docs",
						Message: fmt.Sprintf("exported func %s lacks a doc comment", d.Name.Name)})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var names []*ast.Ident
					var specDoc *ast.CommentGroup
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
						specDoc = s.Doc
					case *ast.ValueSpec:
						names = s.Names
						specDoc = s.Doc
					default:
						continue
					}
					ok := hasDoc(d.Doc) || hasDoc(specDoc)
					for _, name := range names {
						if name.IsExported() && !ok {
							file, line := m.relFile(name.Pos())
							out = append(out, Finding{File: file, Line: line, Check: "docs",
								Message: fmt.Sprintf("exported %s lacks a doc comment", name.Name)})
						}
					}
				}
			}
		}
	}
	return out
}

// hasDoc reports whether a comment group carries non-empty text.
func hasDoc(cg *ast.CommentGroup) bool {
	return cg != nil && strings.TrimSpace(cg.Text()) != ""
}
