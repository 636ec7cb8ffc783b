package rapid

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden with the current surface")

// The surface census: every command-line flag of every binary and every
// exported name of the root facade, as goldens. An option is something the
// tests, smokes and benchmark have to vouch for, so adding or removing one is
// a diff a reviewer sees; refresh intentionally with
//
//	go test . -run SurfaceGolden -update

// TestFlagSurfaceGolden lists each flag.* definition in cmd/*/main.go as
// "binary -name default" (the default as written in the source).
func TestFlagSurfaceGolden(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go found (err %v)", err)
	}
	var lines []string
	for _, path := range mains {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		binary := filepath.Base(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			// flag.T(name, default, usage) or flag.TVar(&v, name, default, usage).
			args := call.Args
			if strings.HasSuffix(sel.Sel.Name, "Var") && len(args) == 4 {
				args = args[1:]
			}
			if len(args) != 3 {
				return true // flag.Parse, flag.Args, ...
			}
			lit, ok := args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: flag name is not a string literal", fset.Position(call.Pos()))
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Errorf("%s: %v", fset.Position(lit.Pos()), err)
				return true
			}
			def := src[fset.Position(args[1].Pos()).Offset:fset.Position(args[1].End()).Offset]
			lines = append(lines, fmt.Sprintf("%s -%s %s", binary, name, def))
			return true
		})
	}
	sort.Strings(lines)
	checkGolden(t, "flags.golden", lines)
}

// TestFacadeSurfaceGolden lists the exported identifiers rapid.go and
// serving.go declare, as "kind Name".
func TestFacadeSurfaceGolden(t *testing.T) {
	var lines []string
	for _, path := range []string{"rapid.go", "serving.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					lines = append(lines, "func "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							lines = append(lines, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								lines = append(lines, d.Tok.String()+" "+id.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	checkGolden(t, "api.golden", lines)
}

func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (rerun with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	have := make(map[string]bool, len(lines))
	for _, l := range lines {
		have[l] = true
	}
	for _, l := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		if !have[l] {
			t.Errorf("%s: gone from the surface: %s", path, l)
		}
		delete(have, l)
	}
	for _, l := range lines {
		if have[l] {
			t.Errorf("%s: new on the surface: %s", path, l)
		}
	}
	t.Errorf("%s: %d entries, golden has a different set; if intended, rerun with -update", path, len(lines))
}
