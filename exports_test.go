package repro_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The root package is the public API; removing an export is a breaking
// change for every downstream import. Two tests pin the exported
// surface. TestRootExportsGolden fails on an unrecorded change (e.g.
// facade churn during a refactor) with the names listed; an intended
// addition or removal is recorded by regenerating the golden file:
//
//	go test -run TestRootExportsGolden . -update-exports
//
// TestRootExportsHaveCallers keeps the surface to what a compiled caller
// uses: every recorded export must be named somewhere in examples/, in
// cmd/, or in a runnable Example function of this package.
var updateExports = flag.Bool("update-exports", false, "rewrite testdata/exports.golden from the current API surface")

const exportsGolden = "testdata/exports.golden"

// rootExports parses the root package (non-test files) and returns its
// exported top-level identifiers, one per kind-tagged line, sorted.
func rootExports(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["repro"]
	if !ok {
		t.Fatalf("package repro not found in %v", pkgs)
	}
	var names []string
	add := func(kind, name string) {
		if ast.IsExported(name) {
			names = append(names, kind+" "+name)
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add("func", d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add("type", s.Name.Name)
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, n := range s.Names {
							add(kind, n.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

func TestRootExportsGolden(t *testing.T) {
	got := rootExports(t)
	if *updateExports {
		if err := os.WriteFile(exportsGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d exports to %s", len(got), exportsGolden)
		return
	}
	raw, err := os.ReadFile(exportsGolden)
	if err != nil {
		t.Fatalf("read golden (run with -update-exports to create it): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")

	gotSet := make(map[string]bool, len(got))
	for _, n := range got {
		gotSet[n] = true
	}
	wantSet := make(map[string]bool, len(want))
	for _, n := range want {
		wantSet[n] = true
	}
	var removed, added []string
	for _, n := range want {
		if !gotSet[n] {
			removed = append(removed, n)
		}
	}
	for _, n := range got {
		if !wantSet[n] {
			added = append(added, n)
		}
	}
	if len(removed) > 0 {
		t.Errorf("root API exports REMOVED (breaking change — if intended, regenerate with -update-exports):\n  %s",
			strings.Join(removed, "\n  "))
	}
	if len(added) > 0 {
		t.Errorf("root API exports added but not recorded (regenerate with -update-exports):\n  %s",
			strings.Join(added, "\n  "))
	}
	if t.Failed() {
		fmt.Println("golden file:", exportsGolden)
	}
}

// reproSelectors adds to named every X that node spells as repro.X.
func reproSelectors(node ast.Node, named map[string]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "repro" {
				named[sel.Sel.Name] = true
			}
		}
		return true
	})
}

func TestRootExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	named := map[string]bool{}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			reproSelectors(f, named)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
				reproSelectors(fd.Body, named)
			}
		}
	}

	raw, err := os.ReadFile(exportsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if _, name, _ := strings.Cut(line, " "); !named[name] {
			orphans = append(orphans, line)
		}
	}
	if len(orphans) > 0 {
		t.Errorf("root exports no example, command or Example function names — drop them, or show the call in an Example:\n  %s",
			strings.Join(orphans, "\n  "))
	}
}
