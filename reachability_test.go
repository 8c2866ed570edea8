package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowlist names the exported identifiers of internal/ that
// non-test code does not reach but that stay, each with its reason. Keys are
// "pkg.Name" for top-level declarations and "pkg.Type.Name" for methods and
// struct fields. The list may only shrink: an entry that gains a non-test
// reach or loses its declaration fails TestExportedIdentifiersAreReached
// until it is removed.
var unreachedAllowlist = map[string]string{
	"core.Replay": "the elastic-replay oracle that dist's byte-identity tests compare every distributed run against",
	"emu.Blast":   "the zero value of TransportMode and so Config.Transport's default: production selects it by leaving the field unset",

	// Oracles that the tests of more than one package compare against, so no
	// one package's export_test.go can hold them.
	"des.Stats.TotalCharges":         "the kernel-event total that the des, emu, dist, core and root tests assert conservation on",
	"netgraph.Network.RoutingBuilds": "the shared-oracle build counter the built-once regression tests of netgraph, mapping and core read",
	"obs.Timeline.CanonicalJSON":     "the deployment-independent timeline bytes that the emu, dist and obs tests compare across run shapes",
	"obs.Timeline.Spans":             "the merged span list the obs, emu, dist and core tests inspect",
	"obs.Timeline.Windows":           "the committed-window count the obs, emu and dist tests check against the kernel's",
	"partition.Graph.Clone":          "the independent deep copy that partition's tests and mapping's serial reference start from",

	// Spellings that bench/ writes and no other code reads: the benchmark is
	// frozen outside benchmark changes, so the fields stay until it drops them.
	"emu.Config.Sequential":         "bench/workloads.go sets it; ignored since the kernel has one window dispatch",
	"experiments.Config.Sequential": "bench/workloads.go sets it; ignored since the kernel has one window dispatch",
}

// stdConsumed names the standard-library interfaces whose methods the
// standard library calls on the module's values. A method that implements
// one of them is reached even if no module code calls it.
var stdConsumed = [][2]string{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"io", "Writer"},
	{"net/http", "Handler"},
	{"sort", "Interface"},
}

// TestExportedIdentifiersAreReached fails for every exported top-level name,
// method or struct field declared in a non-test file under internal/ that
// non-test code of the module does not reach: code that nothing ships or
// runs goes, rather than being carried. Non-test code is every .go file
// outside testdata that does not end in _test.go — internal/, cmd/,
// examples/, bench/ and repro.go. The module is type-checked, so the rules
// are:
//   - a top-level name is reached by any use;
//   - a method is reached by a call or method value, or when it implements
//     a method of an interface that non-test code calls or that the
//     standard library consumes (error and stdConsumed);
//   - a field is reached when non-test code reads it, or when its struct is
//     encoded by encoding/json. A selector on the left of = or := and a
//     composite-literal key are writes, not reads.
func TestExportedIdentifiersAreReached(t *testing.T) {
	decls, refs := scanModule(t)
	var unreached []string
	for key := range decls {
		if refs[key] > 0 {
			if _, ok := unreachedAllowlist[key]; ok {
				t.Errorf("%s is on the allowlist but now has %d non-test reaches: remove its entry", key, refs[key])
			}
			continue
		}
		if _, ok := unreachedAllowlist[key]; !ok {
			unreached = append(unreached, key)
		}
	}
	sort.Strings(unreached)
	for _, key := range unreached {
		t.Errorf("%s (%s) is not reached by non-test code: delete it, or move it into the test files that use it", key, decls[key])
	}
	for key := range unreachedAllowlist {
		if _, ok := decls[key]; !ok {
			t.Errorf("allowlist entry %s names no exported declaration in internal/: remove it", key)
		}
	}
}

// scanModule type-checks every non-test Go file of the module, one package
// per directory. It returns the exported declarations of internal/
// packages, keyed as unreachedAllowlist is and mapped to their position,
// and the number of non-test reaches of each.
func scanModule(t *testing.T) (decls map[string]string, refs map[string]int) {
	t.Helper()
	l := &loader{
		fset:    token.NewFileSet(),
		files:   make(map[string][]*ast.File),
		checked: make(map[string]*types.Package),
		info:    make(map[string]*types.Info),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(l.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		l.files[ip] = append(l.files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(l.files))
	for ip := range l.files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := l.Import(ip); err != nil {
			t.Fatal(err)
		}
	}

	// Declarations: exported top-level objects of internal/ packages, and
	// the exported methods and struct fields of their exported named types.
	decls = make(map[string]string)
	keyOf := make(map[types.Object]string)
	var methods []*types.Func // concrete methods, for the interface rule
	declare := func(obj types.Object, key string) {
		decls[key] = l.fset.Position(obj.Pos()).String()
		keyOf[obj] = key
	}
	for _, ip := range paths {
		if !strings.HasPrefix(ip, "repro/internal/") {
			continue
		}
		pkg := l.checked[ip]
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			declare(obj, pkg.Name()+"."+name)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			prefix := pkg.Name() + "." + name + "."
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					declare(m, prefix+m.Name())
					methods = append(methods, m)
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if m := u.ExplicitMethod(i); m.Exported() {
						declare(m, prefix+m.Name())
					}
				}
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() && !f.Embedded() {
						declare(f, prefix+f.Name())
					}
				}
			}
		}
	}

	// Reaches: every use in non-test code, except writes to a field. called
	// maps a method name to the interfaces through which it is called.
	refs = make(map[string]int)
	called := make(map[string][]*types.Interface)
	callThrough := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			called[name] = append(called[name], iface)
		}
	}
	callThrough(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, sc := range stdConsumed {
		pkg, err := l.std.Import(sc[0])
		if err != nil {
			t.Fatal(err)
		}
		callThrough(pkg.Scope().Lookup(sc[1]).Type().Underlying().(*types.Interface))
	}
	seen := make(map[*types.Func]bool)
	encoded := make(map[*types.Var]bool)
	for _, ip := range paths {
		info := l.info[ip]
		writes := make(map[*ast.Ident]bool)
		for _, f := range l.files[ip] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
						for _, lhs := range n.Lhs {
							if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
								writes[sel.Sel] = true
							}
						}
					}
				case *ast.KeyValueExpr:
					if k, ok := n.Key.(*ast.Ident); ok {
						writes[k] = true
					}
				case *ast.CallExpr:
					if isJSONEncode(info, n) && len(n.Args) > 0 {
						markEncoded(info.TypeOf(n.Args[0]), encoded, make(map[types.Type]bool))
					}
				}
				return true
			})
		}
		for id, obj := range info.Uses {
			switch o := obj.(type) {
			case *types.Var:
				if o.IsField() && writes[id] {
					continue
				}
				obj = o.Origin()
			case *types.Func:
				obj = o.Origin()
				recv := o.Type().(*types.Signature).Recv()
				if recv != nil && types.IsInterface(recv.Type()) && !seen[o] {
					seen[o] = true
					called[o.Name()] = append(called[o.Name()], recv.Type().Underlying().(*types.Interface))
				}
			}
			if key, ok := keyOf[obj]; ok {
				refs[key]++
			}
		}
	}
	for f := range encoded {
		if key, ok := keyOf[f]; ok {
			refs[key]++
		}
	}
	for _, m := range methods {
		if implementsCalled(m, called[m.Name()]) {
			refs[keyOf[m]]++
		}
	}
	return decls, refs
}

// loader type-checks the module's packages from source on demand, and the
// standard library through the source importer, so every import path maps
// to one types.Package.
type loader struct {
	fset    *token.FileSet
	std     types.Importer
	files   map[string][]*ast.File
	checked map[string]*types.Package
	info    map[string]*types.Info
}

func (l *loader) Import(ip string) (*types.Package, error) {
	if pkg, ok := l.checked[ip]; ok {
		return pkg, nil
	}
	files, ok := l.files[ip]
	if !ok {
		return l.std.Import(ip)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	pkg, err := (&types.Config{Importer: l}).Check(ip, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.checked[ip], l.info[ip] = pkg, info
	return pkg, nil
}

// isJSONEncode reports whether call is json.Marshal, json.MarshalIndent or
// (*json.Encoder).Encode, whose first argument encoding/json reads field by
// field.
func isJSONEncode(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
		return false
	}
	switch fn.Name() {
	case "Marshal", "MarshalIndent", "Encode":
		return true
	}
	return false
}

// markEncoded adds to encoded every struct field that encoding/json reads
// when it encodes a value of type t.
func markEncoded(t types.Type, encoded map[*types.Var]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		markEncoded(u.Elem(), encoded, seen)
	case *types.Slice:
		markEncoded(u.Elem(), encoded, seen)
	case *types.Array:
		markEncoded(u.Elem(), encoded, seen)
	case *types.Map:
		markEncoded(u.Elem(), encoded, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if reflect.StructTag(u.Tag(i)).Get("json") != "-" {
				encoded[f.Origin()] = true
				markEncoded(f.Type(), encoded, seen)
			}
		}
	}
}

// implementsCalled reports whether method m's receiver type, or a pointer
// to it, implements one of ifaces.
func implementsCalled(m *types.Func, ifaces []*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, iface := range ifaces {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}
