package repro

import (
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

// unreachedAllowlist names the exported top-level identifiers of internal/
// that non-test code does not reference but that stay, each with its reason.
// The list may only shrink: an entry that gains a caller or loses its
// declaration fails TestExportedIdentifiersAreReached until it is removed.
var unreachedAllowlist = map[string]string{
	"core.Replay":       "the elastic-replay oracle that dist's byte-identity tests compare every distributed run against",
	"dist.NewChaosConn": "the chaos-transport fixture of dist's elastic-membership and heartbeat tests",
	"emu.Blast":         "the zero value of TransportMode and so Config.Transport's default: production selects it by leaving the field unset",
	"partition.ReadGraph": "loads testdata/*.graph for the refine tests and is the target of FuzzReadGraph; " +
		"the METIS reader is the partitioner's one file-format entry point",
}

// TestExportedIdentifiersAreReached fails for every exported top-level func,
// type, var or const declared in a non-test file under internal/ that no
// non-test file of the module references: code that nothing ships or runs
// goes, rather than being carried. Other packages reach an identifier by
// selector (pkg.Name); its own package by a bare identifier other than the
// declaring one. Non-test code is every .go file outside testdata that does
// not end in _test.go — internal/, cmd/, examples/, bench/ and repro.go.
func TestExportedIdentifiersAreReached(t *testing.T) {
	decls, refs := scanModule(t)
	var unreached []string
	for key := range decls {
		if refs[key] > 0 {
			if _, ok := unreachedAllowlist[key]; ok {
				t.Errorf("%s is on the allowlist but now has %d non-test references: remove its entry", key, refs[key])
			}
			continue
		}
		if _, ok := unreachedAllowlist[key]; !ok {
			unreached = append(unreached, key)
		}
	}
	sort.Strings(unreached)
	for _, key := range unreached {
		t.Errorf("%s (%s) has no non-test reference: delete it, or move it into the test files that use it", key, decls[key])
	}
	for key := range unreachedAllowlist {
		if _, ok := decls[key]; !ok {
			t.Errorf("allowlist entry %s names no exported declaration in internal/: remove it", key)
		}
	}
}

// scanModule parses every non-test Go file of the module. It returns the
// exported top-level declarations of internal/ packages, keyed "pkg.Name"
// and mapped to their position, and the number of non-test references to
// each.
func scanModule(t *testing.T) (decls map[string]string, refs map[string]int) {
	t.Helper()
	fset := token.NewFileSet()
	type parsed struct {
		dir  string
		file *ast.File
	}
	var files []parsed
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, parsed{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: exported top-level names of internal/<pkg>, and the
	// package name each directory declares (what an unaliased import binds).
	decls = make(map[string]string)
	pkgOfDir := make(map[string]string)
	declIdents := make(map[*ast.Ident]bool)
	for _, p := range files {
		pkgOfDir[p.dir] = p.file.Name.Name
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, id := range exportedTopLevel(p.file) {
			decls[p.file.Name.Name+"."+id.Name] = fset.Position(id.Pos()).String()
			declIdents[id] = true
		}
	}

	refs = make(map[string]int)
	for _, p := range files {
		// Local name → internal package name, for this file's imports.
		imported := make(map[string]string)
		for _, imp := range p.file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(path, "repro/")
			if !ok || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			local := pkgOfDir[dir]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imported[local] = pkgOfDir[dir]
		}
		own := ""
		if strings.HasPrefix(p.dir, "internal/") {
			own = p.file.Name.Name
		}
		// Identifiers that name something other than a package-level
		// declaration: selected fields and methods, struct fields, and the
		// keys of keyed composite literals.
		skip := make(map[*ast.Ident]bool)
		ast.Inspect(p.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := imported[x.Name]; ok {
						refs[pkg+"."+n.Sel.Name]++
					}
				}
			case *ast.StructType:
				skipNames(skip, n.Fields)
			case *ast.InterfaceType:
				skipNames(skip, n.Methods)
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							skip[k] = true
						}
					}
				}
			case *ast.FuncDecl:
				if n.Recv != nil {
					skip[n.Name] = true
				}
			}
			return true
		})
		if own == "" {
			continue
		}
		ast.Inspect(p.file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !skip[id] && !declIdents[id] && id.IsExported() {
				refs[own+"."+id.Name]++
			}
			return true
		})
	}
	return decls, refs
}

// skipNames marks the names a struct's fields or an interface's methods
// declare.
func skipNames(skip map[*ast.Ident]bool, fields *ast.FieldList) {
	for _, f := range fields.List {
		for _, name := range f.Names {
			skip[name] = true
		}
	}
}

// exportedTopLevel returns the declaring identifiers of f's exported
// package-level funcs, types, vars and consts (methods excluded).
func exportedTopLevel(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				out = append(out, d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, s.Name)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							out = append(out, name)
						}
					}
				}
			}
		}
	}
	return out
}
