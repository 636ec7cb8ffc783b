package rapid

import (
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden with the current surface")

// The surface census: every command-line flag of every binary, every
// exported name of the root facade, every config field, every import edge
// between the module's packages and every exported name in internal/, as
// goldens. An option is something the
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

// TestInternalSurfaceGolden lists every exported top-level name of every
// package under internal/, and every exported method of an exported
// non-interface type there, as "<pkg>.<Name> <kind> <class>" (<pkg> is the
// path below internal/). The walk type-checks the module's own sources with
// go/types, tests included, so a use is attributed to the file it is in; the
// standard library comes from its compiled export data. The build is this
// host's GOOS/GOARCH. The first class that applies wins:
//
//   - cross-package: non-test code in another package of the module (cmd/,
//     the facade, examples/, internal/) uses it;
//   - interface: a method that implements a method of an interface its
//     type, or a module type that embeds its type, satisfies (one declared
//     in the module, error, fmt.Stringer, http.Handler, io.Reader/Writer/
//     Closer, sort.Interface, Unwrap);
//   - bench-only: bench/ uses it, tests included;
//   - test-helper: another package's tests use it;
//   - package-only: only its own package's non-test code uses it;
//   - test-only: only its own package's tests use it;
//   - unreferenced: nothing uses it.
//
// A type that a cross-package, bench-only or test-helper name carries — in
// its signature or, for a type, an exported field — takes that name's class:
// its values cross even where its name does not.
//
// Struct fields are not listed: config fields have their own golden, and
// encoding/json and gob reach the rest through reflection.
func TestInternalSurfaceGolden(t *testing.T) {
	m := checkModule(t)
	const (
		crossUse = 1 << iota
		benchUse
		helperUse
		ownUse
		ownTestUse
	)
	uses := map[types.Object]int{}
	for _, p := range m.checked {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "repro/internal/") {
				continue
			}
			own := obj.Pkg().Path() == p.path
			test := p.test[m.fset.File(id.Pos()).Name()]
			switch {
			case p.bench:
				uses[m.canon(obj)] |= benchUse
			case own && test:
				uses[m.canon(obj)] |= ownTestUse
			case own:
				uses[m.canon(obj)] |= ownUse
			case test:
				uses[m.canon(obj)] |= helperUse
			default:
				uses[m.canon(obj)] |= crossUse
			}
		}
	}
	// A type that values of a name carry is used wherever the name is: a
	// cross-package, bench or test-helper name keeps the types of its
	// signature (or, for a type, its exported fields) in its own class.
	var carry func(t types.Type, use int)
	carry = func(t types.Type, use int) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			obj := t.Obj()
			if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "repro/internal/") || uses[obj]&use != 0 {
				return
			}
			uses[obj] |= use
			carry(t.Underlying(), use)
		case *types.Pointer:
			carry(t.Elem(), use)
		case *types.Slice:
			carry(t.Elem(), use)
		case *types.Array:
			carry(t.Elem(), use)
		case *types.Chan:
			carry(t.Elem(), use)
		case *types.Map:
			carry(t.Key(), use)
			carry(t.Elem(), use)
		case *types.Signature:
			for i := 0; i < t.Params().Len(); i++ {
				carry(t.Params().At(i).Type(), use)
			}
			for i := 0; i < t.Results().Len(); i++ {
				carry(t.Results().At(i).Type(), use)
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					carry(f.Type(), use)
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				carry(t.Method(i).Type(), use)
			}
		}
	}
	names := m.internalSurface()
	for _, use := range []int{crossUse, benchUse, helperUse} {
		for _, obj := range names {
			if uses[obj]&use == 0 {
				continue
			}
			if _, isType := obj.(*types.TypeName); isType {
				carry(obj.Type().Underlying(), use)
			} else {
				carry(obj.Type(), use)
			}
		}
	}
	ifaces, promoters := m.interfaces(t), m.promoters()
	lines := make([]string, 0, len(names))
	for _, obj := range names {
		var name, kind string
		switch o := obj.(type) {
		case *types.Func:
			kind, name = "func", o.Name()
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				kind, name = "method", recvNamed(recv.Type()).Obj().Name()+"."+o.Name()
			}
		case *types.TypeName:
			kind, name = "type", o.Name()
		case *types.Var:
			kind, name = "var", o.Name()
		case *types.Const:
			kind, name = "const", o.Name()
		}
		class := "unreferenced"
		switch u := uses[obj]; {
		case u&crossUse != 0:
			class = "cross-package"
		case kind == "method" && implements(obj.(*types.Func), ifaces, promoters):
			class = "interface"
		case u&benchUse != 0:
			class = "bench-only"
		case u&helperUse != 0:
			class = "test-helper"
		case u&ownUse != 0:
			class = "package-only"
		case u&ownTestUse != 0:
			class = "test-only"
		}
		pkg := strings.TrimPrefix(obj.Pkg().Path(), "repro/internal/")
		lines = append(lines, pkg+"."+name+" "+kind+" "+class)
	}
	sort.Strings(lines)
	checkGolden(t, "internal_surface.golden", lines)
}

// checkedPkg is one type-checked package variant: a package's own files,
// those plus its in-package tests, its external tests, or bench/.
type checkedPkg struct {
	path  string
	bench bool
	test  map[string]bool // file name → is a _test.go file
	info  *types.Info
}

type moduleCheck struct {
	t       *testing.T
	fset    *token.FileSet
	std     types.Importer
	dirs    map[string]*build.Package // import path → package
	plain   map[string]*types.Package // import path → non-test variant
	checked []*checkedPkg
}

// checkModule type-checks every package of the module (each with and
// without its tests) and bench/, which is its own module but imports this
// one's packages.
func checkModule(t *testing.T) *moduleCheck {
	t.Helper()
	m := &moduleCheck{t: t, fset: token.NewFileSet(), dirs: map[string]*build.Package{}, plain: map[string]*types.Package{}}
	stdPaths := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		}
		ip := "repro"
		if path != "." {
			ip += "/" + filepath.ToSlash(path)
		}
		m.dirs[ip] = bp
		for _, imps := range [][]string{bp.Imports, bp.TestImports, bp.XTestImports} {
			for _, p := range imps {
				if p != "repro" && !strings.HasPrefix(p, "repro/") {
					stdPaths[p] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m.std = stdImporter(t, m.fset, stdPaths)
	var paths []string
	for p := range m.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		bp := m.dirs[p]
		if p == "repro/bench" {
			m.check(p, true, bp.GoFiles, bp.TestGoFiles, nil)
			continue
		}
		own := m.load(p)
		if len(bp.TestGoFiles) > 0 {
			own = m.check(p, false, bp.GoFiles, bp.TestGoFiles, nil)
		}
		if len(bp.XTestGoFiles) > 0 {
			m.check(p+"_test", false, nil, bp.XTestGoFiles, own)
		}
	}
	return m
}

// stdImporter reads the standard library's export data, located with one
// `go list -export` over every non-module package the sources import.
func stdImporter(t *testing.T, fset *token.FileSet, paths map[string]bool) types.Importer {
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for p := range paths {
		args = append(args, p)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			exports[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
}

// load returns the non-test variant of a module package, checking it (and
// what it imports) on first use.
func (m *moduleCheck) load(path string) *types.Package {
	if p, ok := m.plain[path]; ok {
		return p
	}
	bp := m.dirs[path]
	if bp == nil {
		m.t.Fatalf("no package %s in the module", path)
	}
	p := m.check(path, false, bp.GoFiles, nil, nil)
	m.plain[path] = p
	return p
}

// check type-checks one package variant from its files and records it. An
// external test package passes own, its package with the in-package test
// files, which is what it imports under the package's path.
func (m *moduleCheck) check(path string, bench bool, goFiles, testFiles []string, own *types.Package) *types.Package {
	cp := &checkedPkg{path: strings.TrimSuffix(path, "_test"), bench: bench, test: map[string]bool{}}
	dir := "."
	if cp.path != "repro" {
		dir = strings.TrimPrefix(cp.path, "repro/")
	}
	var files []*ast.File
	for i, names := range [][]string{goFiles, testFiles} {
		for _, name := range names {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				m.t.Fatal(err)
			}
			cp.test[m.fset.File(f.Pos()).Name()] = i == 1
			files = append(files, f)
		}
	}
	cp.info = &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		if own != nil && p == own.Path() {
			return own, nil
		}
		if p == "repro" || strings.HasPrefix(p, "repro/") {
			return m.load(p), nil
		}
		return m.std.Import(p)
	})}
	pkg, err := conf.Check(path, m.fset, files, cp.info)
	if err != nil {
		m.t.Fatalf("type-check %s: %v", path, err)
	}
	m.checked = append(m.checked, cp)
	return pkg
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// internalSurface lists the census's names: from internal/'s non-test
// variants, exported top-level objects and the exported methods of exported
// non-interface types.
func (m *moduleCheck) internalSurface() []types.Object {
	var out []types.Object
	for path, pkg := range m.plain {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			out = append(out, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
				for i := 0; i < named.NumMethods(); i++ {
					if meth := named.Method(i); meth.Exported() {
						out = append(out, meth)
					}
				}
			}
		}
	}
	return out
}

// canon maps an object from any variant of its package (a test variant
// re-declares every name) to the non-test variant's object.
func (m *moduleCheck) canon(obj types.Object) types.Object {
	pkg := m.plain[obj.Pkg().Path()]
	if pkg == nil || pkg == obj.Pkg() {
		return obj
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		if obj.Parent() != obj.Pkg().Scope() {
			return obj // a field or a local: outside the census
		}
		return pkg.Scope().Lookup(obj.Name())
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg.Scope().Lookup(obj.Name())
	}
	named := recvNamed(recv.Type())
	if named == nil {
		return obj
	}
	if tn, ok := pkg.Scope().Lookup(named.Obj().Name()).(*types.TypeName); ok {
		if n, ok := tn.Type().(*types.Named); ok {
			for i := 0; i < n.NumMethods(); i++ {
				if n.Method(i).Name() == fn.Name() {
					return n.Method(i)
				}
			}
		}
	}
	return obj
}

// interfaces lists the interfaces a method may be implementing: every named
// interface the module's packages declare, and a few from the standard
// library that code outside the module calls.
func (m *moduleCheck) interfaces(t *testing.T) []*types.Interface {
	var out []*types.Interface
	for _, pkg := range m.plain {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				out = append(out, tn.Type().Underlying().(*types.Interface))
			}
		}
	}
	out = append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, ref := range []string{"fmt.Stringer", "net/http.Handler", "io.Reader", "io.Writer", "io.Closer", "sort.Interface"} {
		dot := strings.LastIndexByte(ref, '.')
		pkg, err := m.std.Import(ref[:dot])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pkg.Scope().Lookup(ref[dot+1:]).Type().Underlying().(*types.Interface))
	}
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false))
	return append(out, types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
}

// promoters maps each method an embedded field promotes to the module's
// named types whose method sets it is promoted into.
func (m *moduleCheck) promoters() map[*types.Func][]*types.Named {
	out := map[*types.Func][]*types.Named{}
	for _, pkg := range m.plain {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < ms.Len(); i++ {
				if sel := ms.At(i); len(sel.Index()) > 1 {
					fn := sel.Obj().(*types.Func)
					out[fn] = append(out[fn], named)
				}
			}
		}
	}
	return out
}

// implements reports whether method fn is how its receiver type, or a type
// that promotes it, satisfies one of ifaces.
func implements(fn *types.Func, ifaces []*types.Interface, promoters map[*types.Func][]*types.Named) bool {
	owners := append([]*types.Named{recvNamed(fn.Type().(*types.Signature).Recv().Type())}, promoters[fn]...)
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() != fn.Name() {
				continue
			}
			for _, named := range owners {
				if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
					return true
				}
			}
		}
	}
	return false
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
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
