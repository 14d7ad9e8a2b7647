package drp_test

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

var updateExports = flag.Bool("update", false, "rewrite testdata/exports.txt from the source tree")

// TestExportInventory lists every exported top-level identifier of drp.go
// and the internal packages — types, funcs, methods of exported types,
// consts and vars — and compares the list with testdata/exports.txt, so a
// change to the exported surface shows up in the diff that makes it. After
// a deliberate change, rewrite the file with
//
//	go test -run TestExportInventory . -update
func TestExportInventory(t *testing.T) {
	var got []string
	add := func(path string) error {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		if pkg == "." {
			pkg = "drp"
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					got = append(got, fmt.Sprintf("%s func %s", pkg, d.Name.Name))
				} else if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
					got = append(got, fmt.Sprintf("%s method %s.%s", pkg, recv, d.Name.Name))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							got = append(got, fmt.Sprintf("%s type %s", pkg, s.Name.Name))
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								got = append(got, fmt.Sprintf("%s %s %s", pkg, d.Tok, n.Name))
							}
						}
					}
				}
			}
		}
		return nil
	}
	if err := add("drp.go"); err != nil {
		t.Fatal(err)
	}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "testdata":
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
			return add(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	golden := filepath.Join("testdata", "exports.txt")
	if *updateExports {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	set := func(lines []string) map[string]bool {
		m := make(map[string]bool, len(lines))
		for _, l := range lines {
			m[l] = true
		}
		return m
	}
	gotSet, wantSet := set(got), set(want)
	for _, w := range want {
		if !gotSet[w] {
			t.Errorf("gone, but listed in %s: %s", golden, w)
		}
	}
	for _, g := range got {
		if !wantSet[g] {
			t.Errorf("exported, but not listed in %s: %s", golden, g)
		}
	}
}

// receiverType names a method's receiver type: T for T and *T.
func receiverType(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
