package shufflejoin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"shufflejoin/internal/bench"
	"shufflejoin/internal/flight"
	"shufflejoin/internal/pipeline"
)

// sourceFile is one parsed non-test Go file of the module or of the
// benchmark module beside it.
type sourceFile struct {
	path    string // slash-separated, relative to the module root
	pkg     string // import path of the file's package
	f       *ast.File
	imports map[string]string // local package name -> import path
}

// sources is the one parse of the module both structure tests read.
var sources struct {
	once  sync.Once
	fset  *token.FileSet
	files []sourceFile
	err   error
}

// parseSources parses every non-test Go file under the module root,
// benchmark/ included (the frozen benchmark is a real caller of the
// internal packages), once per test binary.
func parseSources(t *testing.T) (*token.FileSet, []sourceFile) {
	t.Helper()
	sources.once.Do(func() {
		sources.fset = token.NewFileSet()
		sources.err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(sources.fset, path, nil, 0)
			if err != nil {
				return err
			}
			sf := sourceFile{path: filepath.ToSlash(path), pkg: "shufflejoin", f: f, imports: map[string]string{}}
			if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
				sf.pkg += "/" + dir
			}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				name := p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				sf.imports[name] = p
			}
			sources.files = append(sources.files, sf)
			return nil
		})
	})
	if sources.err != nil {
		t.Fatal(sources.err)
	}
	return sources.fset, sources.files
}

// TestReferencesStayReferences: the Tuple joins, the tuple reader and
// the materializing slice map are the references the engine is compared
// against (join/columnar_test.go, join/stream_test.go,
// shuffle/stream_test.go, pipeline/reference_test.go). No non-test code
// outside their own packages uses them — the frozen benchmark's replay
// aside — so everything the module runs — queries, experiments,
// calibration — has one implementation of each operator. A "T.M" entry
// is method M of type T, matched by name on any value that is not a
// package.
func TestReferencesStayReferences(t *testing.T) {
	refs := map[string]map[string]bool{
		"shufflejoin/internal/join":    {"Run": true, "RunStream": true, "HashJoin": true, "NestedLoopJoin": true, "HashJoinBuildSide": true},
		"shufflejoin/internal/shuffle": {"MapSide": true, "RunSet.Reader": true},
	}
	methods := map[string]string{} // method name -> its "T.M" entry's package
	for p, names := range refs {
		for ref := range names {
			if _, m, ok := strings.Cut(ref, "."); ok {
				methods[m] = p
			}
		}
	}
	fset, files := parseSources(t)
	for _, sf := range files {
		if refs[sf.pkg] != nil || strings.HasPrefix(sf.path, "benchmark/") {
			continue
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok {
				if p, ok := sf.imports[x.Name]; ok {
					if refs[p][sel.Sel.Name] {
						t.Errorf("%s uses the reference %s.%s", fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
					}
					return true
				}
			}
			if p, ok := methods[sel.Sel.Name]; ok {
				t.Errorf("%s uses the reference method %s of %s", fset.Position(sel.Pos()), sel.Sel.Name, p)
			}
			return true
		})
	}
}

// testOnlyExports are the exported functions and methods of internal/
// that only tests call, each with the reason it stays. Name matching
// passes a few more that only tests, or only the facade's type aliases,
// use, because the engine selects a field or method of the same name:
// array.Array.Cells and Get, shuffle.SliceSet.Sizes, and
// pipeline.Profile.WriteJSON and Fingerprint (public as
// shufflejoin.Profile). They cannot be listed here.
var testOnlyExports = map[string]string{
	"join.HashJoinBuildSide":      "build-side ablation: the cost of building on the larger side",
	"shuffle.MapSide":             "differential reference the streaming slice map is checked against",
	"shuffle.SliceSet.Slice":      "read side of the reference slice map (MapSide)",
	"shuffle.SliceSet.TotalCells": "read side of the reference slice map (MapSide)",
	"shuffle.SliceSet.Assemble":   "read side of the reference slice map (MapSide)",
	"array.MustParseSchema":       "fixture helper shared by the tests of many packages",
	"array.Chunk.IsSortedCOrder":  "sort-order invariant shared by the tests of many packages",
	"batch.Budget.Used":           "budget release check shared by the shuffle, join and pipeline tests",
	"obshttp.Hub.Log":             "public API: the facade exports Hub as ObsHub",
}

// TestExportedHaveCallers: every exported function and method declared in
// internal/ is referenced by non-test code, or is in testOnlyExports with
// a reason. Tests use what production uses; an export no production code
// calls is deleted or moved into a _test.go file.
//
// A function is referenced when another package selects it through its
// import name, or when its own package names it outside its declaration.
// Methods are matched by name, without types: a method is referenced when
// any non-test file selects its name on a value, or when the name is a
// method of an interface the module declares or of fmt.Stringer, error,
// sort.Interface or json.Marshaler. The facade (package shufflejoin) is
// the library's public API and is not checked.
func TestExportedHaveCallers(t *testing.T) {
	fset, files := parseSources(t)
	type decl struct {
		key string
		pos token.Pos
	}
	var decls []decl
	funcs := map[string]string{}   // import path + "." + name -> key
	methods := map[string]string{} // key -> method name
	for _, sf := range files {
		if !strings.HasPrefix(sf.path, "internal/") {
			continue
		}
		for _, d := range sf.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := sf.f.Name.Name + "."
			if fd.Recv == nil {
				key += fd.Name.Name
				funcs[sf.pkg+"."+fd.Name.Name] = key
			} else {
				key += recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				methods[key] = fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Pos()})
		}
	}

	used := map[string]bool{} // function keys referenced
	methodNames := map[string]bool{"String": true, "Error": true, "Len": true, "Less": true, "Swap": true, "MarshalJSON": true}
	for _, sf := range files {
		self := "" // a function naming itself does not call itself
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := sf.imports[x.Name]; ok {
						used[funcs[p+"."+n.Sel.Name]] = true
						return false
					}
				}
				methodNames[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						methodNames[name.Name] = true
					}
				}
			case *ast.Ident:
				if n.Name != self {
					used[funcs[sf.pkg+"."+n.Name]] = true
				}
			}
			return true
		}
		for _, d := range sf.f.Decls {
			self = ""
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				ast.Inspect(d, visit)
				continue
			}
			if fd.Recv == nil {
				self = fd.Name.Name
			} else {
				ast.Inspect(fd.Recv, visit)
			}
			ast.Inspect(fd.Type, visit)
			if fd.Body != nil {
				ast.Inspect(fd.Body, visit)
			}
		}
	}
	for key, name := range methods {
		if methodNames[name] {
			used[key] = true
		}
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if !used[d.key] && testOnlyExports[d.key] == "" {
			t.Errorf("%s: %s has no non-test caller: delete it or move it into a _test.go file", fset.Position(d.pos), d.key)
		}
	}
	for key := range testOnlyExports {
		switch {
		case !declared[key]:
			t.Errorf("testOnlyExports lists %s, which is not an exported function or method of internal/", key)
		case used[key]:
			t.Errorf("testOnlyExports lists %s, which has a non-test caller: drop the entry", key)
		}
	}
}

// recvTypeName returns the type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func recvTypeName(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	return e.(*ast.Ident).Name
}

// TestKnobCensus pins the number of knobs: the fields of
// pipeline.Options, the facade's With* options and the exported fields
// of the other configuration structs. A change that adds or removes one
// updates the counts here and ROADMAP's census with them, so the knob
// shows in its diff.
func TestKnobCensus(t *testing.T) {
	_, files := parseSources(t)
	with := 0
	for _, sf := range files {
		if sf.pkg != "shufflejoin" {
			continue
		}
		for _, d := range sf.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "With") {
				with++
			}
		}
	}
	exported := func(typ reflect.Type) int {
		n := 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				n++
			}
		}
		return n
	}
	for _, c := range []struct {
		knobs     string
		got, want int
	}{
		{"pipeline.Options fields", exported(reflect.TypeFor[pipeline.Options]()), 13},
		{"facade With* options", with, 13},
		{"ObsConfig fields", exported(reflect.TypeFor[ObsConfig]()), 3},
		{"SchedulerConfig fields", exported(reflect.TypeFor[SchedulerConfig]()), 2},
		{"flight.Postmortem fields", exported(reflect.TypeFor[flight.Postmortem]()), 3},
		{"bench.Config fields", exported(reflect.TypeFor[bench.Config]()), 8},
		{"bench.RealConfig fields", exported(reflect.TypeFor[bench.RealConfig]()), 7},
	} {
		if c.got != c.want {
			t.Errorf("%d %s, pinned at %d: update the count here and ROADMAP's census", c.got, c.knobs, c.want)
		}
	}
}

// TestCITestNamesExist: every Test…, Fuzz… and Benchmark… name the CI
// workflow mentions is a function declared in some _test.go file. A CI
// step that selects tests by name runs nothing for a name that no longer
// exists, and says nothing, so a rename must update the workflow too.
func TestCITestNamesExist(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	funcDecl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	declared := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcDecl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	names := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`).FindAllString(string(ci), -1)
	if len(names) == 0 {
		t.Fatal("ci.yml names no tests")
	}
	for _, name := range names {
		if !declared[name] {
			t.Errorf("ci.yml names %s, which no _test.go file declares", name)
		}
	}
}
