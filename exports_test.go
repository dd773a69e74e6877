package repro

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// allowedExport is an exported identifier kept without a non-test
// caller: Ident is "dir.Name" or "dir.Type.Method", Test names a test
// (or Example) that references it, and Reason says why it stays.
type allowedExport struct {
	Ident, Test, Reason string
}

// exportAllowlist holds every exported identifier under internal/ and
// experiment/ whose only callers are tests. Each entry is a reference
// a test compares against or a fault hook a test injects; anything
// else with no non-test caller is deleted instead. To add one, name
// the identifier as TestExportsHaveCallers reports it, the test that
// uses it, and a one-line reason.
var exportAllowlist = []allowedExport{
	{"internal/analysis.Aggregator.DiurnalProfile", "TestCampaignDiurnalVariation",
		"the only reader of the hour-of-day counters the codec carries; checks §4.2's diurnal cycle"},
	{"internal/coord.WithBeforeUpload", "TestFleetEndToEnd",
		"fault hook: drops or corrupts a computed cell before upload"},
	{"internal/coord.WithDuplicateUploads", "TestFleetEndToEnd",
		"fault hook: delivers every snapshot twice to prove completion is idempotent"},
	{"internal/coord.WithoutHeartbeats", "TestFleetEndToEnd",
		"fault hook: stops lease renewal so a slow worker's lease expires"},
	{"internal/fec.Code.Encode", "TestWorkloadFECDelivery",
		"the real encoder whose shards Reconstruct rebuilds; with it, the reference the workload's delivery model is checked against"},
	{"internal/fec.Code.Reconstruct", "TestWorkloadFECDelivery",
		"the real decoder the workload's any-k delivery model is checked against"},
	{"internal/netsim.Component.Probe", "TestComponentOutageBlocksEverything",
		"reads component state without consuming packet randomness; the ground truth transit is checked against"},
	{"internal/netsim.Network.Materialised", "TestLazyBackboneMatchesEager",
		"counts built backbone components: the footprint tests' exact metric"},
}

// TestExportsHaveCallers is the "no caller, no code" rule, resolved by
// type. Every exported func, type, var and const, and every exported
// method on an exported type, declared in a non-test file under
// internal/ or experiment/ needs a use from a non-test file anywhere in
// the module, or an entry on exportAllowlist. Every unexported func and
// method declared anywhere in the module, test files included, needs a
// use from any file. A method whose receiver type implements an
// interface that has it (the module's own or an imported package's,
// such as fmt.Stringer) is used through that interface.
func TestExportsHaveCallers(t *testing.T) {
	for _, p := range checkExports(t, ".", exportAllowlist) {
		t.Error(p)
	}
}

// TestExportGateReports runs the gate over a small module with one
// live, one dead, one test-only and one allowlisted export, an export
// whose name a non-test identifier elsewhere shares, a dead unexported
// method, a String method reached only through fmt.Stringer, and one
// stale allowlist entry, so the gate is shown to fail when it should.
func TestExportGateReports(t *testing.T) {
	got := checkExports(t, filepath.Join("testdata", "exportgate"), []allowedExport{
		{"internal/a.Allowed", "TestAllowed", "compared against in a test"},
		{"internal/a.Gone", "TestAllowed", "names an identifier that no longer exists"},
	})
	want := []string{
		"internal/a.Dead: exported, never referenced",
		"internal/a.Encode: exported, referenced only by tests",
		"internal/a.Gone: allowlisted, but no such export",
		"internal/a.Live.unwired: unexported, never referenced",
		"internal/a.TestOnly: exported, referenced only by tests",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gate reported\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// goPackage is one directory's Go files, split as the go tool builds
// them: the package, its in-package tests, and its external tests.
type goPackage struct {
	dir                  string // slash-separated, relative to the module root
	files, tests, xtests []*ast.File
	pkg                  *types.Package // the non-test package, once checked
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// checkExports type-checks the module at root and returns the gate's
// findings, sorted. A use is the object go/types resolves an
// identifier to, so a name shared with an unrelated identifier is not
// a use; the standard library is type-checked from source.
func checkExports(t *testing.T, root string, allow []allowedExport) []string {
	t.Helper()
	var (
		fset   = token.NewFileSet()
		mod    = modulePath(t, root)
		byPath = map[string]*goPackage{}
		recv   = map[*ast.Ident]bool{}        // receiver type names: not uses
		bodies = map[token.Pos][2]token.Pos{} // func name → its declaration's extent
		tests  = map[string][]*ast.FuncDecl{} // top-level test-file funcs by name
		info   = &types.Info{Uses: map[*ast.Ident]types.Object{}}
	)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(p))
		rel = filepath.ToSlash(rel)
		ip := path.Join(mod, rel)
		gp := byPath[ip]
		if gp == nil {
			gp = &goPackage{dir: rel}
			byPath[ip] = gp
		}
		test := strings.HasSuffix(name, "_test.go")
		switch {
		case !test:
			gp.files = append(gp.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			gp.xtests = append(gp.xtests, f)
		default:
			gp.tests = append(gp.tests, f)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			bodies[fn.Name.Pos()] = [2]token.Pos{fn.Pos(), fn.End()}
			if fn.Recv != nil {
				ast.Inspect(fn.Recv.List[0].Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recv[id] = true
					}
					return true
				})
			} else if test {
				tests[fn.Name.Name] = append(tests[fn.Name.Name], fn)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Module packages import each other's non-test packages, checked
	// once each on first import; everything else is the standard
	// library.
	std := importer.ForCompiler(fset, "source", nil)
	var imp importerFunc
	check := func(pkgPath string, files []*ast.File) (*types.Package, error) {
		conf := types.Config{Importer: imp}
		return conf.Check(pkgPath, fset, files, info)
	}
	imp = func(p string) (*types.Package, error) {
		gp := byPath[p]
		if gp == nil {
			return std.Import(p)
		}
		var err error
		if gp.pkg == nil {
			gp.pkg, err = check(p, gp.files)
		}
		return gp.pkg, err
	}
	// checked lists every package once, then every test package: the
	// in-package tests are checked with the package's own files again,
	// as the go tool builds them. Their objects differ from the
	// package's, but their positions do not, and positions key uses.
	type checkedPkg struct {
		dir  string
		pkg  *types.Package
		test bool
	}
	var checked, testPkgs []checkedPkg
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		gp := byPath[p]
		if len(gp.files) > 0 {
			pkg, err := imp(p)
			if err != nil {
				t.Fatal(err)
			}
			checked = append(checked, checkedPkg{gp.dir, pkg, false})
		}
		checkTests := func(path string, files []*ast.File) {
			pkg, err := check(path, files)
			if err != nil {
				t.Fatal(err)
			}
			testPkgs = append(testPkgs, checkedPkg{gp.dir, pkg, true})
		}
		if len(gp.tests) > 0 {
			checkTests(p, append(append([]*ast.File{}, gp.files...), gp.tests...))
		}
		if len(gp.xtests) > 0 {
			checkTests(p+"_test", gp.xtests)
		}
	}

	// Uses are keyed by the used object's declaring position. A
	// receiver's type name and a function's use of itself are not uses.
	isTest := func(pos token.Pos) bool { return strings.HasSuffix(fset.File(pos).Name(), "_test.go") }
	callers, testUses := map[token.Pos]bool{}, map[token.Pos]bool{}
	for id, obj := range info.Uses {
		if recv[id] || obj.Pkg() == nil {
			continue
		}
		if b, ok := bodies[obj.Pos()]; ok && b[0] <= id.Pos() && id.Pos() < b[1] {
			continue
		}
		if isTest(id.Pos()) {
			testUses[obj.Pos()] = true
		} else {
			callers[obj.Pos()] = true
		}
	}

	// Every interface a method may be used through: the module's own
	// and those of every package it imports, however indirectly.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var collect func(pkg *types.Package, own bool)
	collect = func(pkg *types.Package, own bool) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !(own || tn.Exported()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				if it, ok := named.Underlying().(*types.Interface); ok && it.IsMethodSet() {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, dep := range pkg.Imports() {
			collect(dep, byPath[dep.Path()] != nil)
		}
	}
	for _, c := range checked {
		collect(c.pkg, true)
	}
	implemented := func(named *types.Named, m *types.Func) bool {
		if named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Id() == m.Id() &&
					(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
					return true
				}
			}
		}
		return false
	}

	// Rule 1 takes the exports of the packages under internal/ and
	// experiment/; rule 3 takes the unexported funcs and methods of
	// every package and test, each from the files it was declared in.
	exports := map[string]types.Object{}
	var problems []string
	unused := func(obj types.Object) bool { return !callers[obj.Pos()] && !testUses[obj.Pos()] }
	for _, c := range append(checked, testPkgs...) {
		scoped := !c.test && (strings.HasPrefix(c.dir, "internal/") || c.dir == "experiment" || strings.HasPrefix(c.dir, "experiment/"))
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := c.dir + "." + name
			_, fn := obj.(*types.Func)
			switch {
			case isTest(obj.Pos()) != c.test:
			case obj.Exported():
				if scoped {
					exports[key] = obj
				}
			case fn && name != "init" && !(name == "main" && c.pkg.Name() == "main") && unused(obj):
				problems = append(problems, key+": unexported, never referenced")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				mkey := key + "." + m.Name()
				switch {
				case isTest(m.Pos()) != c.test:
				case !m.Exported():
					if unused(m) && !implemented(named, m) {
						problems = append(problems, mkey+": unexported, never referenced")
					}
				case scoped && obj.Exported() && (callers[m.Pos()] || !implemented(named, m)):
					exports[mkey] = m
				}
			}
		}
	}

	allowed := map[string]bool{}
	for _, a := range allow {
		allowed[a.Ident] = true
		obj, ok := exports[a.Ident]
		switch {
		case !ok:
			problems = append(problems, a.Ident+": allowlisted, but no such export")
		case callers[obj.Pos()]:
			problems = append(problems, a.Ident+": allowlisted, but it has a non-test caller")
		case !testReferences(tests[a.Test], info, obj):
			problems = append(problems, fmt.Sprintf("%s: allowlisted for %s, which does not exist or does not reference it", a.Ident, a.Test))
		}
	}
	for key, obj := range exports {
		switch {
		case allowed[key] || callers[obj.Pos()]:
		case testUses[obj.Pos()]:
			problems = append(problems, key+": exported, referenced only by tests")
		default:
			problems = append(problems, key+": exported, never referenced")
		}
	}
	sort.Strings(problems)
	return problems
}

// modulePath reads the module path from root's go.mod.
func modulePath(t *testing.T, root string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for line := range strings.Lines(string(data)) {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(mod)
		}
	}
	t.Fatalf("%s/go.mod: no module line", root)
	return ""
}

// testReferences reports whether the body of any of the named test
// functions uses obj.
func testReferences(fns []*ast.FuncDecl, info *types.Info, obj types.Object) bool {
	found := false
	for _, fn := range fns {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil && info.Uses[id].Pos() == obj.Pos() {
				found = true
			}
			return !found
		})
	}
	return found
}
