//go:build ignore

// check_exports lists exported functions and methods in internal/ that no
// production file refers to. A production file is a non-test .go file
// under internal/, cmd/, benchmark/ or examples/.
//
// Run it from the repository root through scripts/check_exports.sh, or as
//
//	go run scripts/check_exports.go
//
// It fails (exit 1) when a declared name has no reference and is not
// listed in scripts/exports_allow.txt, and when an allowlist entry names
// something that is referenced or no longer declared. Each allowlist
// line is "pkg.Name — reason" for a function or "pkg.Type.Method —
// reason" for a method; blank lines and lines starting with # are
// skipped.
//
// Matching is by name only, with no type information: a function
// counts as used when any production file outside its declaration
// spells its name, and a method counts as used when any production
// file calls or selects a method or field of that name on any type.
// So the check is conservative. It can miss a dead method that shares
// its name with a live one, but it never reports a name that is used.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// decl is one exported function or method declared in internal/.
type decl struct {
	key  string // pkg.Name or pkg.Type.Method
	name string // the identifier other files would spell
	pos  string
}

func main() {
	fset := token.NewFileSet()
	var decls []decl
	used := map[string]bool{}

	for _, root := range []string{"internal", "cmd", "benchmark", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
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
			own := map[*ast.Ident]bool{}
			for _, dd := range f.Decls {
				fd, ok := dd.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				own[fd.Name] = true
				if root != "internal" {
					continue
				}
				key := f.Name.Name + "." + fd.Name.Name
				if fd.Recv != nil {
					key = f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, decl{key: key, name: fd.Name.Name, pos: fset.Position(fd.Pos()).String()})
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !own[id] {
					used[id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "check_exports:", err)
			os.Exit(2)
		}
	}

	allow, err := readAllow("scripts/exports_allow.txt")
	if err != nil {
		fmt.Fprintln(os.Stderr, "check_exports:", err)
		os.Exit(2)
	}

	var bad []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		switch {
		case used[d.name] && allow[d.key]:
			bad = append(bad, fmt.Sprintf("%s: %s is used by production code; drop it from the allowlist", d.pos, d.key))
		case !used[d.name] && !allow[d.key]:
			bad = append(bad, fmt.Sprintf("%s: %s has no caller outside tests", d.pos, d.key))
		}
	}
	for key := range allow {
		if !declared[key] {
			bad = append(bad, fmt.Sprintf("scripts/exports_allow.txt: %s is not declared in internal/; drop it", key))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		fmt.Fprintln(os.Stderr, b)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "check_exports: %d problem(s); delete test-only exports, or allowlist one with its reason\n", len(bad))
		os.Exit(1)
	}
	fmt.Printf("check_exports: %d exported functions and methods in internal/, %d allowlisted\n", len(decls), len(allow))
}

// recvType returns the receiver's type name without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvType(t.X)
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

// readAllow parses the allowlist into its set of keys. Every entry must
// carry a reason after an em dash.
func readAllow(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, ok := strings.Cut(line, "—")
		key = strings.TrimSpace(key)
		if !ok || strings.TrimSpace(reason) == "" || strings.ContainsAny(key, " \t") {
			return nil, fmt.Errorf("%s:%d: want \"pkg.Name — reason\", got %q", path, n, line)
		}
		if allow[key] {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, key)
		}
		allow[key] = true
	}
	return allow, sc.Err()
}
