package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
	{"internal/fec.Code.Reconstruct", "TestWorkloadFECDelivery",
		"the real decoder the workload's any-k delivery model is checked against"},
	{"internal/netsim.Component.Probe", "TestComponentOutageBlocksEverything",
		"reads component state without consuming packet randomness; the ground truth transit is checked against"},
	{"internal/netsim.Network.Materialised", "TestLazyBackboneMatchesEager",
		"counts built backbone components: the footprint tests' exact metric"},
	{"internal/route.NewLatencyEWMA", "TestLinkEstimateMatchesEWMA",
		"the standalone EWMA the estimate's inline latency average must equal bit for bit"},
	{"internal/route.Selector.BestLatStable", "TestSnapshotMatchesStableSelections",
		"the per-pair hysteresis reference the snapshot tables are compared against"},
	{"internal/route.Selector.BestLossStable", "TestSnapshotMatchesStableSelections",
		"the per-pair hysteresis reference the snapshot tables are compared against"},
}

// TestExportsHaveCallers is the "no caller, no code" rule: every
// exported func, type, var and const, and every exported method on an
// exported type, declared in a non-test file under internal/ or
// experiment/ needs a reference from a non-test file anywhere in the
// module, or an entry on exportAllowlist.
func TestExportsHaveCallers(t *testing.T) {
	for _, p := range checkExports(t, ".", exportAllowlist) {
		t.Error(p)
	}
}

// TestExportGateReports runs the gate over a small module with one
// live, one dead, one test-only and one allowlisted export, plus one
// stale allowlist entry, so the gate is shown to fail when it should.
func TestExportGateReports(t *testing.T) {
	got := checkExports(t, filepath.Join("testdata", "exportgate"), []allowedExport{
		{"internal/a.Allowed", "TestAllowed", "compared against in a test"},
		{"internal/a.Gone", "TestAllowed", "names an identifier that no longer exists"},
	})
	want := []string{
		"internal/a.Dead: exported, never referenced",
		"internal/a.Gone: allowlisted, but no such export",
		"internal/a.TestOnly: exported, referenced only by tests",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gate reported\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// checkExports parses every Go file under root and returns the gate's
// findings, sorted. References resolve by name: any identifier in a
// non-test file that is not itself a declaration counts as a use, so a
// name collision hides dead code but live code is never reported.
func checkExports(t *testing.T, root string, allow []allowedExport) []string {
	t.Helper()
	var (
		fset     = token.NewFileSet()
		exports  = map[string]string{} // "dir.Name" or "dir.Type.Method" → Name
		testFns  = map[string][]*ast.FuncDecl{}
		callers  = map[string]int{} // uses by name in non-test files
		testUses = map[string]int{}
	)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		rel = filepath.ToSlash(rel)
		test := strings.HasSuffix(name, "_test.go")
		inScope := !test && (strings.HasPrefix(rel, "internal/") ||
			rel == "experiment" || strings.HasPrefix(rel, "experiment/"))

		// Every identifier a declaration introduces — funcs, types,
		// values, fields, parameters — is a name, not a use.
		decls := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				decls[n.Name] = true
			case *ast.TypeSpec:
				decls[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					decls[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					decls[id] = true
				}
			}
			return true
		})

		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if test && d.Recv == nil {
					testFns[d.Name.Name] = append(testFns[d.Name.Name], d)
				}
				if !inScope || !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					exports[rel+"."+d.Name.Name] = d.Name.Name
				} else if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
					exports[rel+"."+recv+"."+d.Name.Name] = d.Name.Name
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						if inScope && id.IsExported() {
							exports[rel+"."+id.Name] = id.Name
						}
					}
				}
			}
		}

		tally := callers
		if test {
			tally = testUses
		}
		var count func(ast.Node) bool
		count = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// A method's receiver type is not a use of that type.
				if n.Recv != nil {
					ast.Inspect(n.Type, count)
					if n.Body != nil {
						ast.Inspect(n.Body, count)
					}
					return false
				}
			case *ast.Ident:
				if !decls[n] {
					tally[n.Name]++
				}
			}
			return true
		}
		ast.Inspect(f, count)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var problems []string
	allowed := map[string]bool{}
	for _, a := range allow {
		allowed[a.Ident] = true
		name, ok := exports[a.Ident]
		switch {
		case !ok:
			problems = append(problems, a.Ident+": allowlisted, but no such export")
		case callers[name] > 0:
			problems = append(problems, a.Ident+": allowlisted, but it has a non-test caller")
		case !testReferences(testFns[a.Test], name):
			problems = append(problems, fmt.Sprintf("%s: allowlisted for %s, which does not exist or does not reference it", a.Ident, a.Test))
		}
	}
	for key, name := range exports {
		switch {
		case allowed[key] || callers[name] > 0:
		case testUses[name] > 0:
			problems = append(problems, key+": exported, referenced only by tests")
		default:
			problems = append(problems, key+": exported, never referenced")
		}
	}
	sort.Strings(problems)
	return problems
}

// receiverType names a method's receiver type: T, *T, T[P] or *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// testReferences reports whether any of the named test functions
// mentions name in its body.
func testReferences(fns []*ast.FuncDecl, name string) bool {
	for _, fn := range fns {
		found := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
