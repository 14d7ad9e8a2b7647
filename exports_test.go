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

var updateExports = flag.Bool("update", false, "rewrite testdata/exports.txt and testdata/fields.txt from the source tree")

// TestExportInventory lists every exported top-level identifier of drp.go
// and the internal packages — types, funcs, methods of exported types,
// consts and vars — and compares the list with testdata/exports.txt, so a
// change to the exported surface shows up in the diff that makes it. After
// a deliberate change, rewrite the file with
//
//	go test -run TestExportInventory . -update
func TestExportInventory(t *testing.T) {
	var got []string
	walkSources(t, func(pkg string, f *ast.File) {
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
	})
	compareInventory(t, filepath.Join("testdata", "exports.txt"), got)
}

// TestFieldInventory lists every exported field of every exported struct
// type of drp.go and the internal packages, embedded ones by their type
// name, and compares the list with testdata/fields.txt: each field is a
// value callers can set, so a new knob shows up in the diff that adds it.
// After a deliberate change, rewrite the file with
//
//	go test -run TestFieldInventory . -update
func TestFieldInventory(t *testing.T) {
	var got []string
	walkSources(t, func(pkg string, f *ast.File) {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				s := spec.(*ast.TypeSpec)
				st, ok := s.Type.(*ast.StructType)
				if !ok || !s.Name.IsExported() {
					continue
				}
				for _, field := range st.Fields.List {
					names := field.Names
					if len(names) == 0 {
						names = []*ast.Ident{{Name: embeddedName(field.Type)}}
					}
					for _, n := range names {
						if ast.IsExported(n.Name) {
							got = append(got, fmt.Sprintf("%s field %s.%s", pkg, s.Name.Name, n.Name))
						}
					}
				}
			}
		}
	})
	compareInventory(t, filepath.Join("testdata", "fields.txt"), got)
}

// walkSources parses drp.go and every non-test Go file under internal/
// and hands each to visit with its package path ("drp" for drp.go).
func walkSources(t *testing.T, visit func(pkg string, f *ast.File)) {
	t.Helper()
	add := func(path string) error {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		if pkg == "." {
			pkg = "drp"
		}
		visit(pkg, f)
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
}

// compareInventory diffs got, sorted, against the golden file's lines, or
// rewrites the file under -update.
func compareInventory(t *testing.T, golden string, got []string) {
	t.Helper()
	sort.Strings(got)
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

// embeddedName names an embedded field: T for T, *T, pkg.T and *pkg.T.
func embeddedName(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	if sel, ok := x.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return receiverType(x)
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
