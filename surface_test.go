package rapid

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden with the current surface")

// The surface census: every command-line flag of every binary, every
// exported name of the root facade, every config field and every import
// edge between the module's packages, as goldens. An option is something the
// tests, smokes and benchmark have to vouch for, and an edge is a layering
// decision, so adding or removing one is a diff a reviewer sees; refresh
// intentionally with
//
//	go test . -run Golden -update

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

// TestConfigFieldSurfaceGolden lists every exported field of every exported
// struct type named *Config or *Options in the module (bench/ and the
// facade's type aliases aside) as "<pkg>.<Type>.<Field> <status>":
//
//   - set: some non-test file, here or in bench/, writes the field — a
//     composite-literal key, or an assignment through a value of the type;
//   - test-only: only tests write it;
//   - unset: nothing writes it.
//
// The type's own withDefaults and `if x.F == zero { x.F = … }` defaulting
// are not writes. A field that is not set is a constant with a knob on it.
// The walk is syntactic (go/parser, no type checker): a value's type comes
// from its declaration, a composite literal, a function's declared result or
// a struct field, which is every way the module hands a config around.
func TestConfigFieldSurfaceGolden(t *testing.T) {
	c := loadFieldCensus(t)
	var lines []string
	for _, f := range c.census {
		status := "unset"
		switch w := c.writes[f]; {
		case w[0]:
			status = "set"
		case w[1]:
			status = "test-only"
		}
		lines = append(lines, f+" "+status)
	}
	sort.Strings(lines)
	checkGolden(t, "config_fields.golden", lines)
}

// censusFile is one parsed file with its package directory (relative to the
// module root, "." for the root) and its imports by local name.
type censusFile struct {
	dir     string
	test    bool
	f       *ast.File
	imports map[string]string
}

// fieldCensus holds the syntactic type facts the census needs. Type keys are
// "<dir>.<Name>".
type fieldCensus struct {
	files   []*censusFile
	fields  map[string]map[string]string // type → field → field type
	embeds  map[string][]string          // type → embedded field types
	results map[string]string            // func "dir.F" or method "dir.T.M" → first result type
	aliases map[string]string            // alias type → aliased type
	census  []string                     // "dir.Type.Field" in scope
	writes  map[string][2]bool           // "dir.Type.Field" → written by {non-test, test} code
}

// TestImportGraphGolden lists every import edge between the module's
// packages as "importer -> imported", from non-test files (bench/, its own
// module, aside). Build constraints are ignored: an edge any platform's
// build has is listed. `make layers` enforces the rules; this makes every
// new edge, allowed or not, a line in a reviewed diff.
func TestImportGraphGolden(t *testing.T) {
	edges := map[string]bool{}
	for _, cf := range parseModule(t) {
		if cf.test || inBench(cf.dir) {
			continue
		}
		from := "repro"
		if cf.dir != "." {
			from += "/" + cf.dir
		}
		for _, imp := range cf.f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro" || strings.HasPrefix(p, "repro/") {
				edges[from+" -> "+p] = true
			}
		}
	}
	lines := make([]string, 0, len(edges))
	for e := range edges {
		lines = append(lines, e)
	}
	sort.Strings(lines)
	checkGolden(t, "imports.golden", lines)
}

func inBench(dir string) bool { return dir == "bench" || strings.HasPrefix(dir, "bench/") }

func loadFieldCensus(t *testing.T) *fieldCensus {
	t.Helper()
	c := &fieldCensus{
		files:   parseModule(t),
		fields:  map[string]map[string]string{},
		embeds:  map[string][]string{},
		results: map[string]string{},
		aliases: map[string]string{},
		writes:  map[string][2]bool{},
	}
	// Aliases first, so every later type expression resolves through them.
	for _, cf := range c.files {
		for _, ts := range typeSpecs(cf.f) {
			if ts.Assign.IsValid() {
				c.aliases[cf.dir+"."+ts.Name.Name] = c.typeKey(cf, ts.Type)
			}
		}
	}
	funcVars := map[string]string{} // var F = pkg.G: F returns what G returns
	for _, cf := range c.files {
		for _, ts := range typeSpecs(cf.f) {
			st, ok := ts.Type.(*ast.StructType)
			if !ok || ts.Assign.IsValid() {
				continue
			}
			key := cf.dir + "." + ts.Name.Name
			c.fields[key] = map[string]string{}
			inScope := !cf.test && !inBench(cf.dir) &&
				ts.Name.IsExported() && (strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options"))
			for _, fld := range st.Fields.List {
				ft := c.typeKey(cf, fld.Type)
				if len(fld.Names) == 0 {
					c.embeds[key] = append(c.embeds[key], ft)
					if i := strings.LastIndexByte(ft, '.'); i >= 0 {
						c.fields[key][ft[i+1:]] = ft
					}
				}
				for _, id := range fld.Names {
					c.fields[key][id.Name] = ft
					if inScope && id.IsExported() {
						c.census = append(c.census, key+"."+id.Name)
					}
				}
			}
		}
		for _, decl := range cf.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Type.Results == nil || len(d.Type.Results.List) == 0 {
					continue
				}
				key := cf.dir + "." + d.Name.Name
				if d.Recv != nil && len(d.Recv.List) == 1 {
					key = c.typeKey(cf, d.Recv.List[0].Type) + "." + d.Name.Name
				}
				c.results[key] = c.typeKey(cf, d.Type.Results.List[0].Type)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && d.Tok == token.VAR && len(vs.Names) == len(vs.Values) {
						for i, v := range vs.Values {
							if ref := c.funcRef(cf, v); ref != "" {
								funcVars[cf.dir+"."+vs.Names[i].Name] = ref
							}
						}
					}
				}
			}
		}
	}
	for alias, ref := range funcVars {
		c.results[alias] = c.results[ref]
	}
	for _, cf := range c.files {
		for _, decl := range cf.f.Decls {
			c.walkWrites(cf, decl)
		}
	}
	return c
}

// parseModule parses every .go file under the module root (dot-directories
// and testdata aside) and resolves each file's module imports by local name.
func parseModule(t *testing.T) []*censusFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []*censusFile
	pkgName := map[string]string{} // dir → package name, for default import names
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		cf := &censusFile{dir: filepath.ToSlash(filepath.Dir(path)), test: strings.HasSuffix(name, "_test.go"), f: f}
		if !cf.test {
			pkgName[cf.dir] = f.Name.Name
		}
		files = append(files, cf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cf := range files {
		cf.imports = map[string]string{}
		for _, imp := range cf.f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(p, "repro/")
			if p == "repro" {
				dir, ok = ".", true
			}
			if !ok {
				continue // outside the module: no census type lives there
			}
			local := pkgName[dir]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			cf.imports[local] = dir
		}
	}
	return files
}

func typeSpecs(f *ast.File) []*ast.TypeSpec {
	var out []*ast.TypeSpec
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
			for _, spec := range gd.Specs {
				out = append(out, spec.(*ast.TypeSpec))
			}
		}
	}
	return out
}

// typeKey names the (pointed-to) named type e spells, or "" for any other
// type expression.
func (c *fieldCensus) typeKey(cf *censusFile, e ast.Expr) string {
	var key string
	switch e := e.(type) {
	case *ast.StarExpr:
		return c.typeKey(cf, e.X)
	case *ast.ParenExpr:
		return c.typeKey(cf, e.X)
	case *ast.Ident:
		key = cf.dir + "." + e.Name
	case *ast.SelectorExpr:
		pkg, ok := e.X.(*ast.Ident)
		if !ok || cf.imports[pkg.Name] == "" {
			return ""
		}
		key = cf.imports[pkg.Name] + "." + e.Sel.Name
	default:
		return ""
	}
	for i := 0; i < 4 && c.aliases[key] != ""; i++ {
		key = c.aliases[key]
	}
	return key
}

// funcRef names the module function e refers to (F or pkg.F), or "".
func (c *fieldCensus) funcRef(cf *censusFile, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return cf.dir + "." + e.Name
	case *ast.SelectorExpr:
		if pkg, ok := e.X.(*ast.Ident); ok && cf.imports[pkg.Name] != "" {
			return cf.imports[pkg.Name] + "." + e.Sel.Name
		}
	}
	return ""
}

// owner finds the type that declares field name on typ, through embedding.
func (c *fieldCensus) owner(typ, name string) string {
	for depth, level := 0, []string{typ}; depth < 4 && len(level) > 0; depth++ {
		var next []string
		for _, ty := range level {
			if _, ok := c.fields[ty][name]; ok {
				return ty
			}
			next = append(next, c.embeds[ty]...)
		}
		level = next
	}
	return ""
}

// walkWrites records every field write in one top-level declaration. Local
// names are typed flat per declaration, in source order; a closure shares its
// enclosing function's names.
func (c *fieldCensus) walkWrites(cf *censusFile, decl ast.Decl) {
	vars := map[string]string{}
	declare := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, fld := range fl.List {
			for _, id := range fld.Names {
				vars[id.Name] = c.typeKey(cf, fld.Type)
			}
		}
	}
	isPkg := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		_, local := vars[id.Name]
		return !local && cf.imports[id.Name] != ""
	}
	var typeOf func(e ast.Expr) string
	typeOf = func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.ParenExpr:
			return typeOf(e.X)
		case *ast.StarExpr:
			return typeOf(e.X)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				return typeOf(e.X)
			}
		case *ast.CompositeLit:
			return c.typeKey(cf, e.Type)
		case *ast.Ident:
			return vars[e.Name]
		case *ast.SelectorExpr:
			if isPkg(e.X) {
				return "" // a package-level value
			}
			recv := typeOf(e.X)
			return c.fields[c.owner(recv, e.Sel.Name)][e.Sel.Name]
		case *ast.CallExpr:
			switch fn := e.Fun.(type) {
			case *ast.Ident:
				if fn.Name == "new" && len(e.Args) == 1 {
					return c.typeKey(cf, e.Args[0])
				}
				if _, local := vars[fn.Name]; !local {
					return c.results[cf.dir+"."+fn.Name]
				}
			case *ast.SelectorExpr:
				if isPkg(fn.X) {
					return c.results[c.funcRef(cf, fn)]
				}
				return c.results[typeOf(fn.X)+"."+fn.Sel.Name]
			}
		}
		return ""
	}
	write := func(typ, field string) {
		if ty := c.owner(typ, field); ty != "" {
			w := c.writes[ty+"."+field]
			w[boolIndex(cf.test)] = true
			c.writes[ty+"."+field] = w
		}
	}
	// Defaulting writes: `if x.F <op> zero { x.F = … }`, and a withDefaults
	// method writing its own receiver.
	defaulting := map[ast.Node]bool{}
	skipType := ""
	if fd, ok := decl.(*ast.FuncDecl); ok {
		declare(fd.Recv)
		declare(fd.Type.Params)
		declare(fd.Type.Results)
		if fd.Name.Name == "withDefaults" && fd.Recv != nil {
			skipType = c.typeKey(cf, fd.Recv.List[0].Type)
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		tested := map[string]bool{}
		var conds func(e ast.Expr)
		conds = func(e ast.Expr) {
			if b, ok := e.(*ast.BinaryExpr); ok {
				switch b.Op {
				case token.LOR, token.LAND:
					conds(b.X)
					conds(b.Y)
				case token.EQL, token.LEQ, token.LSS:
					tested[types.ExprString(b.X)] = true
				}
			}
		}
		conds(ifs.Cond)
		for _, st := range ifs.Body.List {
			if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && tested[types.ExprString(as.Lhs[0])] {
				defaulting[as] = true
			}
		}
		return true
	})
	elided := map[*ast.CompositeLit]string{} // element literals that omit their type
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			declare(n.Type.Params)
		case *ast.DeclStmt:
			gd := n.Decl.(*ast.GenDecl)
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					switch {
					case vs.Type != nil:
						vars[id.Name] = c.typeKey(cf, vs.Type)
					case i < len(vs.Values):
						vars[id.Name] = typeOf(vs.Values[i])
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && n.Tok == token.DEFINE {
					switch {
					case len(n.Lhs) == len(n.Rhs):
						vars[id.Name] = typeOf(n.Rhs[i])
					case i == 0:
						vars[id.Name] = typeOf(n.Rhs[0]) // first result of a call
					default:
						vars[id.Name] = ""
					}
				}
				if sel, ok := lhs.(*ast.SelectorExpr); ok && n.Tok != token.DEFINE && !defaulting[n] {
					if recv := typeOf(sel.X); recv != skipType {
						write(recv, sel.Sel.Name)
					}
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := n.X.(*ast.SelectorExpr); ok {
				write(typeOf(sel.X), sel.Sel.Name)
			}
		case *ast.CompositeLit:
			typ := c.typeKey(cf, n.Type)
			if n.Type == nil {
				typ = elided[n]
			}
			var elem string
			switch lt := n.Type.(type) {
			case *ast.ArrayType:
				elem = c.typeKey(cf, lt.Elt)
			case *ast.MapType:
				elem = c.typeKey(cf, lt.Value)
			}
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						write(typ, key.Name)
					}
					el = kv.Value
				}
				if lit, ok := el.(*ast.CompositeLit); ok && lit.Type == nil {
					elided[lit] = elem
				}
			}
		}
		return true
	})
}

func boolIndex(b bool) int {
	if b {
		return 1
	}
	return 0
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
