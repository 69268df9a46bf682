package compcache

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryPanicStatesItsInvariant: a panic in the module's program files is
// a caller contract the code cannot report as an error, so the line before
// it has to say which. Every panic call needs a comment holding "Invariant:"
// on one of the six lines above it. Test files, testdata and nested modules
// (bench/_ccperf, which the go tool skips for its leading underscore) are not
// read.
func TestEveryPanicStatesItsInvariant(t *testing.T) {
	fset := token.NewFileSet()
	panics := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		stated := make(map[int]bool) // lines holding "Invariant:"
		for _, g := range f.Comments {
			for _, c := range g.List {
				if strings.Contains(c.Text, "Invariant:") {
					stated[fset.Position(c.Pos()).Line] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "panic" {
				return true
			}
			panics++
			line := fset.Position(call.Pos()).Line
			for above := line - 6; above < line; above++ {
				if stated[above] {
					return true
				}
			}
			t.Errorf("%s:%d: panic with no Invariant: comment in the six lines above", path, line)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if panics == 0 {
		t.Error("found no panic call: the walk read no program file")
	}
}
