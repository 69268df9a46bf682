package lint

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Module is the unit cclint analyzes: every package of one Go module,
// parsed and type-checked together with a single shared types.Info.
// Analyzers reach cross-package facts (which function, in which package, does
// this identifier name?) through Module, while per-package syntax stays on
// Package.
type Module struct {
	// Root is the directory the tree was loaded from (the go.mod
	// directory for LoadModule, the fixture root for LoadTree).
	Root string
	// Path is the module import path ("compcache", or the fake path a
	// fixture tree is mounted at).
	Path string
	// Fset positions every file of every package.
	Fset *token.FileSet
	// Pkgs holds all packages, sorted by import path.
	Pkgs []*Package
	// Info is the shared type information for the whole module. Every
	// package type-checked without error, or the load failed.
	Info *types.Info

	byPath map[string]*Package
}

// Package is one parsed Go package as the analyzers see it. Syntax (Files)
// is always present; Types carries the package's type-checked form
// and Mod links back to the whole module for cross-package queries.
type Package struct {
	// Path is the slash-separated import path, e.g.
	// "compcache/internal/machine".
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Fset positions all Files (it is the module's shared FileSet).
	Fset *token.FileSet
	// Files holds the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Mod is the module this package belongs to (set by the loader: a
	// Package never reaches an analyzer without it).
	Mod *Module

	imports []string // module-internal import paths, for topo-sorting
}

// LoadModule locates the module containing dir (by walking up to go.mod)
// and loads every package in it: the whole tree is parsed and type-checked
// in dependency order with one shared types.Info. Test files (_test.go) are not loaded — the invariants cclint
// enforces are about simulation code, and tests routinely hold golden
// host-time or shuffled fixtures — and testdata, vendor and hidden
// directories are always skipped, so fixture packages can never leak into
// a real lint run (see TestLoadModuleNeverLoadsTestdata).
func LoadModule(dir string) (*Module, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	return LoadTree(root, module)
}

// LoadTree loads the directory tree rooted at root as if it were a module
// named modulePath. The golden tests use it to mount
// internal/lint/testdata/src as a pretend module, so fixture packages get
// import paths like "compcache/kernelproto/internal/sim" and can import each
// other, while real loads (LoadModule) can never reach them.
//
// The load is strict: a tree that does not type-check, or an import the
// toolchain has no export data for, is an error, as it is for `go build`.
func LoadTree(root, modulePath string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod := &Module{
		Root:   root,
		Path:   modulePath,
		Fset:   token.NewFileSet(),
		Info:   newInfo(),
		byPath: make(map[string]*Package),
	}

	var dirs []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	for _, d := range dirs {
		pkg, err := parsePackage(mod, d)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			mod.Pkgs = append(mod.Pkgs, pkg)
			mod.byPath[pkg.Path] = pkg
		}
	}
	if len(mod.Pkgs) == 0 {
		return nil, fmt.Errorf("lint: no Go packages under %s", root)
	}

	order, err := topoSort(mod)
	if err != nil {
		return nil, err
	}
	if err := check(mod, order); err != nil {
		return nil, err
	}
	return mod, nil
}

// Select resolves go-tool-shaped package patterns against the loaded
// module, relative to dir: "./..." selects every package at or below dir,
// "./internal/..." a subtree, and a plain directory path selects that one
// directory. Selection never reaches outside the loaded set, so patterns
// naming a testdata directory select nothing.
func (m *Module) Select(dir string, patterns []string) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, pat := range patterns {
		pat, rec := strings.CutSuffix(pat, "/...")
		if pat == "..." {
			rec, pat = true, "."
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(abs, base)
		}
		base = filepath.Clean(base)
		for _, p := range m.Pkgs {
			pdir, err := filepath.Abs(p.Dir)
			if err != nil {
				continue
			}
			if (pdir == base || (rec && strings.HasPrefix(pdir+string(filepath.Separator), base+string(filepath.Separator)))) && !slices.Contains(out, p) {
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, module string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// parsePackage parses the non-test Go files of one directory that the
// default build includes into the module: a file that a build constraint or
// its name's GOOS/GOARCH suffix leaves out of `go build` is left out here
// too, or it would type-check against the file it stands in for. It returns
// (nil, nil) for directories with no such files.
func parsePackage(mod *Module, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		if ok {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)

	pkg := &Package{
		Path: importPath(dir, mod.Root, mod.Path),
		Dir:  dir,
		Fset: mod.Fset,
		Mod:  mod,
	}
	imports := make(map[string]bool)
	for _, n := range names {
		f, err := parser.ParseFile(mod.Fset, filepath.Join(dir, n), nil, 0)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		pkg.Files = append(pkg.Files, f)
		for _, imp := range f.Imports {
			if p := importLiteral(imp); mod.internal(p) {
				imports[p] = true
			}
		}
	}
	pkg.imports = slices.Sorted(maps.Keys(imports))
	return pkg, nil
}

// importLiteral unquotes an import spec's path, returning "" on error.
func importLiteral(imp *ast.ImportSpec) string {
	p, _ := strconv.Unquote(imp.Path.Value)
	return p
}

// importPath maps a directory inside the module to its import path.
func importPath(dir, root, module string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return module
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || rel == "." {
		return module
	}
	return module + "/" + filepath.ToSlash(rel)
}

// topoSort orders the module's packages so every package comes after its
// module-internal imports, which is the order the type checker needs.
func topoSort(mod *Module) ([]*Package, error) {
	const (
		white = iota // unvisited
		grey         // on the current DFS path
		black        // done
	)
	state := make(map[*Package]int)
	var order []*Package
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("lint: import cycle through %s", p.Path)
		}
		state[p] = grey
		for _, imp := range p.imports {
			if dep := mod.byPath[imp]; dep != nil && dep != p {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p] = black
		order = append(order, p)
		return nil
	}
	for _, p := range mod.Pkgs { // mod.Pkgs is sorted, so order is stable
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// newInfo allocates the shared types.Info with every map analyzers use.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// internal reports whether an import path names a package of the module.
func (m *Module) internal(path string) bool {
	return path == m.Path || strings.HasPrefix(path, m.Path+"/")
}

// exportFiles asks the go command, in one `go list -export` call, for the
// compiled export data of every package the module imports from outside
// itself (the standard library), building what the build cache lacks. It
// maps each import path to its export file.
func exportFiles(mod *Module) (map[string]string, error) {
	imports := make(map[string]bool)
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				if p := importLiteral(imp); !mod.internal(p) {
					imports[p] = true
				}
			}
		}
	}
	files := make(map[string]string)
	if len(imports) == 0 {
		return files, nil
	}
	args := append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, slices.Sorted(maps.Keys(imports))...)
	cmd := exec.Command("go", args...)
	cmd.Dir = mod.Root
	out, err := cmd.Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			err = fmt.Errorf("%v\n%s", err, bytes.TrimSpace(exit.Stderr))
		}
		return nil, fmt.Errorf("lint: go list -export: %w", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "\t")
		files[path] = file
	}
	return files, nil
}

// moduleImporter resolves module-internal imports from the loaded set and
// everything else from the toolchain's export data.
type moduleImporter struct {
	mod *Module
	std types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if mi.mod.internal(path) {
		if p := mi.mod.byPath[path]; p != nil && p.Types != nil {
			return p.Types, nil
		}
		return nil, fmt.Errorf("package %s not found in module %s", path, mi.mod.Path)
	}
	return mi.std.Import(path)
}

// check type-checks the packages in dependency order, sharing one
// types.Info so cross-package identities (the *types.Func for
// sim.Clock.Advance, say) are the same object everywhere. The first package
// with a type error ends the load with every error in it.
func check(mod *Module, order []*Package) error {
	files, err := exportFiles(mod)
	if err != nil {
		return err
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if files[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(files[path])
	}
	mi := &moduleImporter{mod: mod, std: importer.ForCompiler(mod.Fset, "gc", lookup)}
	for _, pkg := range order {
		var errs []error
		conf := types.Config{Importer: mi, Error: func(err error) { errs = append(errs, err) }}
		pkg.Types, _ = conf.Check(pkg.Path, mod.Fset, pkg.Files, mod.Info)
		if len(errs) > 0 {
			return fmt.Errorf("lint: %s does not type-check: %w", pkg.Path, errors.Join(errs...))
		}
	}
	return nil
}
