package shufflejoin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestReferencesStayReferences: the []Tuple joins and the materializing
// slice map are the references the streaming engine is compared against
// (join/stream_test.go, shuffle/stream_test.go, pipeline/reference_test.go).
// No non-test code outside their own packages uses them, so everything
// the module runs — queries, experiments, calibration — has one
// implementation of each operator.
func TestReferencesStayReferences(t *testing.T) {
	refs := map[string]map[string]bool{
		"shufflejoin/internal/join":    {"Run": true, "HashJoin": true, "NestedLoopJoin": true, "HashJoinBuildSide": true},
		"shufflejoin/internal/shuffle": {"MapSide": true, "MapSideN": true},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == filepath.Join("internal", "join") || path == filepath.Join("internal", "shuffle") ||
				path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		imported := map[string]string{} // local package name -> import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if refs[p] == nil {
				continue
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && refs[imported[x.Name]][sel.Sel.Name] {
					t.Errorf("%s uses the reference %s.%s", fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
