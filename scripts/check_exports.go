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
// Uses are resolved with go/types, standard library only: `go list
// -deps -export` names each package's files and the export data of the
// standard packages, and the module's packages are type-checked from
// source, once with the default build tags and once with purego, so a
// file either kernel set compiles counts. A function or method counts as
// used when a production file refers to that very object, so a dead
// method that shares its name with a live one on another type is
// reported. A method also counts as used when its type implements an
// interface whose method of that name production code calls, or an
// interface declared by a standard package the module imports (the
// standard library calls String, Error, MarshalJSON, ServeHTTP...).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const module = "arams/"

// decl is one exported function or method declared in internal/.
type decl struct {
	key string // pkg.Name or pkg.Type.Method
	pos string
	fn  *types.Func
}

// use is what one build configuration's production code refers to.
type use struct {
	decls  []decl
	funcs  map[string]bool // keys of the module's functions and methods referred to
	ifaces []*types.Func   // interface methods production code calls, or a standard package declares
}

func main() {
	used := map[string]bool{}
	declared := map[string]string{} // key → position
	for _, tags := range []string{"", "purego"} {
		u, err := load(tags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "check_exports:", err)
			os.Exit(2)
		}
		for k := range u.funcs {
			used[k] = true
		}
		for _, d := range u.decls {
			declared[d.key] = d.pos
			if implementsUsed(d.fn, u.ifaces) {
				used[d.key] = true
			}
		}
	}

	allow, err := readAllow("scripts/exports_allow.txt")
	if err != nil {
		fmt.Fprintln(os.Stderr, "check_exports:", err)
		os.Exit(2)
	}

	var bad []string
	for key, pos := range declared {
		switch {
		case used[key] && allow[key]:
			bad = append(bad, fmt.Sprintf("%s: %s is used by production code; drop it from the allowlist", pos, key))
		case !used[key] && !allow[key]:
			bad = append(bad, fmt.Sprintf("%s: %s has no caller outside tests", pos, key))
		}
	}
	for key := range allow {
		if declared[key] == "" {
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
	fmt.Printf("check_exports: %d exported functions and methods in internal/, %d allowlisted\n", len(declared), len(allow))
}

// listed is the part of `go list -json` output load reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	Standard   bool
}

// load type-checks the module's production packages under one set of
// build tags and collects what they declare and refer to.
func load(tags string) (*use, error) {
	cmd := exec.Command("go", "list", "-e", "-json", "-deps", "-export", "-tags", tags,
		"./internal/...", "./cmd/...", "./benchmark/...", "./examples/...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []listed
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else {
			pkgs = append(pkgs, p)
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})

	u := &use{funcs: map[string]bool{}}
	stdIfaces := map[string]bool{}
	// go list -deps prints a package after everything it imports.
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s (tags %q): %w", p.ImportPath, tags, err)
		}
		checked[p.ImportPath] = tp

		for _, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				u.ifaces = append(u.ifaces, fn)
			} else if fn.Pkg() != nil && strings.HasPrefix(fn.Pkg().Path(), module+"internal/") {
				u.funcs[keyOf(fn)] = true
			}
		}
		for _, path := range p.Imports {
			if exports[path] != "" && !stdIfaces[path] {
				stdIfaces[path] = true
				u.ifaces = append(u.ifaces, interfaceMethods(imp, path)...)
			}
		}
		if !strings.HasPrefix(p.ImportPath, module+"internal/") {
			continue
		}
		for _, f := range files {
			for _, dd := range f.Decls {
				fd, ok := dd.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				u.decls = append(u.decls, decl{key: keyOf(fn), pos: fset.Position(fd.Pos()).String(), fn: fn})
			}
		}
	}
	u.ifaces = append(u.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0))
	return u, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// interfaceMethods returns the methods of every interface a standard
// package declares at package scope.
func interfaceMethods(imp types.Importer, path string) []*types.Func {
	p, err := imp.Import(path)
	if err != nil {
		return nil
	}
	var out []*types.Func
	for _, name := range p.Scope().Names() {
		tn, ok := p.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				out = append(out, it.Method(i))
			}
		}
	}
	return out
}

// implementsUsed reports whether fn is a method whose receiver type
// implements the interface of one of ifaces that has fn's name.
func implementsUsed(fn *types.Func, ifaces []*types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, im := range ifaces {
		if im.Name() != fn.Name() {
			continue
		}
		it, ok := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if ok && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return false
}

// keyOf names a function pkg.Name and a method pkg.Type.Method.
func keyOf(fn *types.Func) string {
	key := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			key += n.Obj().Name() + "."
		}
	}
	return key + fn.Name()
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
