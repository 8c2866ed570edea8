package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsNameExistingTests reads the CI workflow and fails for every
// alternative of a go test -run, -bench or -fuzz pattern (its top level, the
// part before any '/') that matches no Test, Benchmark or Fuzz function of
// the packages the same command names: a renamed or deleted test would
// otherwise drop out of its CI step without a word. Alternatives that match
// the empty name (-run=^$, "run none") select nothing on purpose and pass.
func TestCIPatternsNameExistingTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{"-run": "Test", "-bench": "Benchmark", "-fuzz": "Fuzz"}
	names := map[string][]string{} // package dir → its test function names
	commands := 0
	for _, cmd := range goTestCommands(string(raw)) {
		commands++
		var pkgs []string
		patterns := map[string]string{} // flag → pattern
		for i := 0; i < len(cmd); i++ {
			arg := cmd[i]
			if strings.HasPrefix(arg, "./") {
				pkgs = append(pkgs, arg)
				continue
			}
			flag, val, hasVal := strings.Cut(arg, "=")
			if _, ok := kinds[flag]; !ok {
				continue
			}
			if !hasVal && i+1 < len(cmd) {
				i++
				val = cmd[i]
			}
			patterns[flag] = val
		}
		for flag, pattern := range patterns {
			prefix := kinds[flag]
			for _, alt := range splitTopLevel(splitTopLevel(pattern, '/')[0], '|') {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: %s %q: %v", strings.Join(cmd, " "), flag, alt, err)
					continue
				}
				if re.MatchString("") {
					continue
				}
				found := false
				for _, pkg := range pkgs {
					if _, ok := names[pkg]; !ok {
						names[pkg] = testFuncs(t, pkg)
					}
					for _, name := range names[pkg] {
						if strings.HasPrefix(name, prefix) && re.MatchString(name) {
							found = true
						}
					}
				}
				if !found {
					t.Errorf("ci.yml runs %s %q on %v, but no %s function there matches %q", flag, pattern, pkgs, prefix, alt)
				}
			}
		}
	}
	if commands == 0 {
		t.Fatal("ci.yml has no go test command")
	}
}

// goTestCommands returns the argument lists of the workflow's go test
// commands, continuation lines joined and shell quotes removed.
func goTestCommands(yml string) [][]string {
	var out [][]string
	joined := strings.ReplaceAll(yml, "\\\n", " ")
	for _, line := range strings.Split(joined, "\n") {
		line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "run:"))
		if _, rest, ok := strings.Cut(line, "go test "); ok {
			out = append(out, shellWords(rest))
		}
	}
	return out
}

// shellWords splits s on blanks outside single or double quotes, dropping
// the quotes: enough shell for the workflow's go test lines.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	var quote rune
	inWord := false
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// splitTopLevel splits a go test pattern on sep outside brackets and
// parentheses, as go test itself splits -run on '/'.
func splitTopLevel(s string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}

// testFuncs lists the top-level Test, Benchmark and Fuzz functions of the
// package in dir pkg, or of every package under it for a "./..." pattern.
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	root, recursive := strings.CutSuffix(pkg, "/...")
	var names []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (!recursive || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	return names
}
