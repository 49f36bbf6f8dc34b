// Command doclint enforces three floors on the module rooted at its
// argument, with nothing but the standard library (go/parser, go/types and
// the "source" importer — the build host has no network and no x/tools).
//
// The documentation floor: every package (and every command) carries a real
// package comment — present, and substantial enough to orient a reader (at
// least two lines or 120 characters), not a placeholder one-liner. `go vet`
// checks comment *placement* but not existence.
//
// The surface floor — "the surface equals the traffic" — over everything
// under internal/:
//
//   - an exported func, method, type, var or const is referenced from a
//     non-test file (outside its own declaration) or from another package's
//     test; its own package's tests do not keep a name alive. A method is
//     exempt while it satisfies an interface that callers reach it through:
//     one of the module's whose methods have such a reference, or one the
//     standard library calls (error, fmt.Stringer, sort.Interface, the
//     errors.Is/As/Unwrap protocol). Interface methods are the contract,
//     not the surface, and are not themselves checked.
//   - an exported field of a config-shaped struct (*Config, *Options,
//     *Description, *Spec and the five named in configShaped) is set by a
//     caller: in a composite literal, or by an assignment or through its
//     address anywhere but its own package's non-test files, which only
//     default it. A field nobody sets is a constant.
//
// The spine floor — DESIGN.md's determinism contract and the rules that
// keep one implementation of each decision — is the table rules in
// spine.go: numbered rules with their scopes and reasons, on go/types
// objects rather than text. `make seed-audit rule N` cites its row.
//
// Usage:
//
//	go run ./cmd/doclint [root]
//
// With no argument the current directory is linted. Test data, dot
// directories and vendored code are skipped. One line is printed per
// finding, naming the identifier or, for a spine rule, the rule and the
// position; exit status 1 means at least one.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// minChars and minLines define "real": a comment shorter than both reads
// as a stub left to satisfy a linter, not documentation.
const (
	minChars = 120
	minLines = 2
)

// allowed names survive the surface floor without a caller; a type's entry
// covers its methods. At most two, each with the reason it is kept. Exported
// code with no caller outside its own tests is not kept for a ROADMAP item:
// the item that needs it brings it back with its caller.
var allowed = map[string]string{
	"kmeans.Sequential": "the reference implementation kmeans_test.go compares against",
}

// Every lint call shares them, so the standard library is checked once.
var (
	fset = token.NewFileSet()
	std  = importer.ForCompiler(fset, "source", nil)
)

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// configShaped matches the structs whose exported fields are options.
var configShaped = regexp.MustCompile(`(Config|Options|Description|Spec)$|^(plan\.Backoff|dataflow\.Stage|miniapp\.Runner|miniapp\.TaskWorkload|data\.Link)$`)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	findings, npkgs, err := lint(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Printf("doclint: ok (%d packages)\n", npkgs)
}

// unit is one directory's Go files: the package proper, its in-package
// tests and its external (_test) tests.
type unit struct {
	dir, path         string
	src, intest, xtst []*ast.File
	pkg               *types.Package // src, type-checked
}

type linter struct {
	root, mod string
	units     map[string]*unit               // by import path
	info      *types.Info                    // every package's non-test files
	bodies    map[*types.Func]*ast.BlockStmt // every function and method they declare

	decls  map[string]types.Object // surface under internal/, by key
	fields map[string]bool         // config-shaped fields under internal/
	fkey   map[*types.Var]string   // struct field → key, every variant
	used   map[string]bool
	set    map[string]bool
	ifaces []*types.Interface // error, those written in the module's non-test files, those of imported standard-library packages
}

// lint returns the findings for the module rooted at root, sorted, and the
// number of packages it looked at.
func lint(root string) ([]string, int, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, 0, fmt.Errorf("doclint: %s is not a module root: %w", root, err)
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(gomod)
	if m == nil {
		return nil, 0, fmt.Errorf("doclint: %s/go.mod names no module", root)
	}
	l := &linter{
		root: root, mod: string(m[1]), units: map[string]*unit{}, info: newInfo(), bodies: map[*types.Func]*ast.BlockStmt{},
		decls: map[string]types.Object{}, fields: map[string]bool{}, fkey: map[*types.Var]string{},
		used: map[string]bool{}, set: map[string]bool{}, ifaces: []*types.Interface{errorType},
	}
	if err := l.parse(root); err != nil {
		return nil, 0, err
	}
	paths := make([]string, 0, len(l.units))
	for p := range l.units {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	var findings []string
	for _, p := range paths {
		if f := docFinding(l.units[p]); f != "" {
			findings = append(findings, f)
		}
		if _, err := l.Import(p); err != nil {
			return nil, 0, err
		}
		if err := l.checkTests(l.units[p]); err != nil {
			return nil, 0, err
		}
	}
	findings = append(findings, l.surface()...)
	findings = append(findings, l.spine(paths)...)
	sort.Strings(findings)
	return findings, len(paths), nil
}

// parse reads every Go file under root into its directory's unit.
func (l *linter) parse(root string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("doclint: %w", err)
		}
		dir := filepath.Dir(path)
		rel, _ := filepath.Rel(root, dir)
		ipath := l.mod
		if rel != "." {
			ipath += "/" + filepath.ToSlash(rel)
		}
		u := l.units[ipath]
		if u == nil {
			u = &unit{dir: dir, path: ipath}
			l.units[ipath] = u
		}
		switch {
		case !strings.HasSuffix(path, "_test.go"):
			u.src = append(u.src, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			u.xtst = append(u.xtst, f)
		default:
			u.intest = append(u.intest, f)
		}
		return nil
	})
}

// docFinding applies the documentation floor to one package.
func docFinding(u *unit) string {
	if len(u.src) == 0 {
		return ""
	}
	best := ""
	for _, f := range u.src {
		if f.Doc != nil {
			if doc := strings.TrimSpace(f.Doc.Text()); len(doc) > len(best) {
				best = doc
			}
		}
	}
	switch {
	case best == "":
		return fmt.Sprintf("doclint: %s: package has no package comment", u.dir)
	case len(best) < minChars && strings.Count(best, "\n")+1 < minLines:
		return fmt.Sprintf("doclint: %s: package comment is a stub (%d chars) — say what the package is and why it exists", u.dir, len(best))
	}
	return ""
}

// Import serves module packages from their parsed source (type-checking
// on first use) and everything else from the standard library's source.
func (l *linter) Import(path string) (*types.Package, error) {
	u := l.units[path]
	if u == nil || len(u.src) == 0 {
		return std.Import(path)
	}
	if u.pkg != nil {
		return u.pkg, nil
	}
	pkg, err := l.check(path, u.src, l.info)
	if err != nil {
		return nil, err
	}
	u.pkg = pkg
	for _, f := range u.src {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				l.bodies[l.info.Defs[fd.Name].(*types.Func)] = fd.Body
			}
		}
	}
	l.declare(pkg)
	l.walk(l.info, u.src)
	return pkg, nil
}

func newInfo() *types.Info {
	return &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
}

func (l *linter) check(path string, files []*ast.File, info *types.Info) (*types.Package, error) {
	pkg, err := (&types.Config{Importer: l}).Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("doclint: %w", err)
	}
	l.keyFields(pkg)
	return pkg, nil
}

// checkTests type-checks a directory's two test packages and walks their
// files only: the in-package tests re-check the package's own files beside
// them, whose references were already counted.
func (l *linter) checkTests(u *unit) error {
	if len(u.intest) > 0 {
		info := newInfo()
		if _, err := l.check(u.path, append(append([]*ast.File(nil), u.src...), u.intest...), info); err != nil {
			return err
		}
		l.walk(info, u.intest)
	}
	if len(u.xtst) > 0 {
		info := newInfo()
		if _, err := l.check(u.path+"_test", u.xtst, info); err != nil {
			return err
		}
		l.walk(info, u.xtst)
	}
	return nil
}

func (l *linter) internal(pkg *types.Package) bool {
	return pkg != nil && strings.HasPrefix(pkg.Path(), l.mod+"/internal/")
}

// keyFields names every struct field of pkg's package-level types, so a
// field object from any type-checked variant of a package maps to one key.
func (l *linter) keyFields(pkg *types.Package) {
	if !l.internal(pkg) {
		return
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				l.fkey[st.Field(i)] = pkg.Path() + "." + name + "." + st.Field(i).Name()
			}
		}
	}
}

// declare records pkg's exported surface and its interfaces.
func (l *linter) declare(pkg *types.Package) {
	for _, imp := range pkg.Imports() {
		if l.units[imp.Path()] == nil {
			l.collectIfaces(imp)
		}
	}
	if !l.internal(pkg) {
		return
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			l.decls[l.key(obj)] = obj
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if types.IsInterface(named) {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				l.decls[l.key(m)] = m
			}
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok || !tn.Exported() || !configShaped.MatchString(pkg.Name()+"."+name) {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				l.fields[l.fkey[f]] = true
			}
		}
	}
}

func (l *linter) collectIfaces(pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				l.ifaces = append(l.ifaces, it)
			}
		}
	}
}

// key names an object of the module's internal tree: path.Name,
// path.Type.Method or path.Type.Field; "" for anything else.
func (l *linter) key(obj types.Object) string {
	if !l.internal(obj.Pkg()) {
		return ""
	}
	switch o := obj.(type) {
	case *types.Var:
		if o.IsField() {
			return l.fkey[o]
		}
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return o.Pkg().Path() + "." + named.Obj().Name() + "." + o.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// walk counts the references and field writes in files.
func (l *linter) walk(info *types.Info, files []*ast.File) {
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		isTest, dir := strings.HasSuffix(name, "_test.go"), filepath.Dir(name)
		// foreign: obj is declared in another directory than this file.
		foreign := func(obj types.Object) bool {
			return filepath.Dir(fset.Position(obj.Pos()).Filename) != dir
		}
		markSet := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
					continue
				case *ast.IndexExpr:
					e = x.X
					continue
				case *ast.SelectorExpr:
					if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() && (isTest || foreign(v)) {
						l.set[l.fkey[v]] = true
					}
				}
				return
			}
		}
		for _, decl := range f.Decls {
			var self types.Object // the declaration being walked does not reference itself
			var recv *ast.FieldList
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self, recv = info.Defs[fd.Name], fd.Recv
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.InterfaceType:
					if it, ok := info.TypeOf(x).(*types.Interface); ok && !isTest {
						l.ifaces = append(l.ifaces, it)
					}
				case *ast.FieldList:
					if x == recv {
						return false // a receiver is not a use of its type
					}
				case *ast.ValueSpec:
					if !slices.ContainsFunc(x.Names, func(id *ast.Ident) bool { return id.Name != "_" }) {
						return false // `var _ I = T{}` asserts, it does not call
					}
				case *ast.TypeSpec:
					if _, isFunc := decl.(*ast.FuncDecl); !isFunc {
						self = info.Defs[x.Name]
					}
				case *ast.Ident:
					obj := info.Uses[x]
					if obj == nil || obj == self {
						break
					}
					if k := l.key(obj); k != "" && (!isTest || foreign(obj)) {
						l.used[k] = true
					}
				case *ast.CompositeLit:
					t := info.TypeOf(x)
					if t == nil {
						break
					}
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range x.Elts {
						var v *types.Var
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							v, _ = info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
						} else if i < st.NumFields() {
							v = st.Field(i)
						}
						if v != nil {
							l.set[l.fkey[v]] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						markSet(lhs)
					}
				case *ast.IncDecStmt:
					markSet(x.X)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						markSet(x.X)
					}
				}
				return true
			})
		}
	}
}

// surface applies the two traffic rules to what the walks counted.
func (l *linter) surface() []string {
	show := func(key string) string { return key[strings.LastIndex(key, "/")+1:] }
	var out []string
	for key, obj := range l.decls {
		name := show(key)
		if l.used[key] || allowed[name] != "" {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if allowed[name[:strings.LastIndex(name, ".")]] != "" || l.satisfiesLiveInterface(fn, recv.Type()) {
					continue
				}
			}
		}
		out = append(out, fmt.Sprintf("doclint: %s: no caller outside its own tests", name))
	}
	for key := range l.fields {
		if !l.set[key] {
			out = append(out, fmt.Sprintf("doclint: %s: never set by a caller", show(key)))
		}
	}
	return out
}

// satisfiesLiveInterface reports whether method fn of type t is reached
// through an interface t satisfies: the errors package's Is/As/Unwrap
// protocol, a standard-library or anonymous interface, or a module
// interface at least one of whose methods is itself called.
func (l *linter) satisfiesLiveInterface(fn *types.Func, t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	implements := func(it *types.Interface) bool {
		return types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
	}
	if n := fn.Name(); (n == "Is" || n == "As" || n == "Unwrap") && implements(errorType) {
		return true
	}
	for _, it := range l.ifaces {
		has, live := false, false
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			has = has || m.Name() == fn.Name()
			k := l.key(m)
			live = live || k == "" || l.used[k]
		}
		if has && live && implements(it) {
			return true
		}
	}
	return false
}
