package harness

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestNoExportedPackageVars keeps Env the only way to configure a run:
// an exported package-level variable would be process-global
// configuration that concurrent runs share, which is what Env replaced.
func TestNoExportedPackageVars(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						if name.IsExported() {
							t.Errorf("%s: exported package-level var %s; put run configuration on Env",
								fset.Position(name.Pos()), name.Name)
						}
					}
				}
			}
		}
	}
}
