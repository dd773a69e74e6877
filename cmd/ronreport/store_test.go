package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/resultstore"
)

// The -store command line, driven through run:
// each case is the arguments after `-store <dir>` and the output lines
// (or the error) they must produce over a six-row fixture segment.

var (
	fixtureDir string // holds the clean fixture segment
	tornDir    string // the same segment followed by half a block

	// fixtureTables is what every fixture row's t5/t6 columns flatten;
	// -render must give back exactly what rendering it directly does.
	fixtureTables = resultstore.Tables{
		LatencyLabel: "lat",
		Overview: []analysis.MethodTotals{
			{Method: "direct", Probes: 1000, FirstLossPct: 0.5, TotalLossPct: 0.5, MeanLatency: 54 * time.Millisecond},
			{Method: "direct rand", Probes: 1000, FirstLossPct: 0.5, SecondLossPct: 1.5, TotalLossPct: 0.25,
				CondLossPct: 50, MeanLatency: 51 * time.Millisecond, Pair: true},
		},
		Hours: analysis.Table6{
			Methods: []string{"direct", "direct rand"}, Thresholds: []float64{0, 10},
			Counts: [][]int64{{4, 2}, {1, 0}}, Periods: []int64{24, 24}, WorstHourPct: 0.5,
		},
	}
)

// writeFixture stores two grid points of two cells each and their merged
// rows. Only the worst hour varies (0.25, 0.75 | 0.5, 1.5), and only
// the outage grid point carries the rs.outages column.
func writeFixture(dir string) error {
	st, err := resultstore.Open(resultstore.SegmentPath(dir))
	if err != nil {
		return err
	}
	add := func(kind, name, group, scenario string, replica int32, worst float64) {
		t := fixtureTables
		t.Hours.WorstHourPct = worst
		r := &resultstore.Row{Kind: kind, Name: name, Group: group, Dataset: "ronnarrow",
			Replica: replica, Replicas: 1, Hosts: 12, Days: 0.02,
			Axes:    []resultstore.AxisKV{{Key: "scenario", Value: scenario}},
			Metrics: t.Flatten(nil)}
		if kind == resultstore.KindGroup {
			r.Replicas = 2
		}
		if scenario == "outage" {
			r.Metrics = append(r.Metrics, resultstore.Metric{Col: "rs.outages", Val: 3})
		}
		if err == nil {
			err = st.Append(r)
		}
	}
	add(resultstore.KindCell, "a-r00", "a", "0", 0, 0.25)
	add(resultstore.KindCell, "a-r01", "a", "0", 1, 0.75)
	add(resultstore.KindGroup, "a", "a", "0", -1, 0.5)
	add(resultstore.KindCell, "b-r00", "b", "outage", 0, 0.5)
	add(resultstore.KindCell, "b-r01", "b", "outage", 1, 1.5)
	add(resultstore.KindGroup, "b", "b", "outage", -1, 1)
	if err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

func TestMain(m *testing.M) {
	os.Exit(func() int {
		root, err := os.MkdirTemp("", "ronreport-test")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(root)
		fixtureDir, tornDir = filepath.Join(root, "clean"), filepath.Join(root, "torn")
		sweepFixture.dir = filepath.Join(root, "sweep")
		if err := writeFixture(fixtureDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		seg, err := os.ReadFile(resultstore.SegmentPath(fixtureDir))
		if err == nil {
			if err = os.MkdirAll(tornDir, 0o755); err == nil {
				// A crashed writer's last append: a row header, no payload.
				err = os.WriteFile(resultstore.SegmentPath(tornDir), append(seg, 2, 0xff, 0, 0, 0, 1, 2), 0o644)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return m.Run()
	}())
}

type storeCase struct {
	name   string
	dir    *string  // fixture directory; nil means fixtureDir
	args   []string // after -store <dir>
	expect []string // output lines, in order
	errHas []string // when set, run must fail with an error containing each
}

func runStoreCase(t *testing.T, tc storeCase) {
	t.Helper()
	dir := fixtureDir
	if tc.dir != nil {
		dir = *tc.dir
	}
	runCLI(t, append([]string{"-store", dir}, tc.args...), tc.expect, tc.errHas)
}

// runCLI drives the command line: args in, the stdout lines (in
// order) out and, when errHas is set, exit 1 with an error containing
// each of its strings.
func runCLI(t *testing.T, args, expect, errHas []string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if len(errHas) > 0 {
		if code != 1 {
			t.Fatalf("ronreport %v exited %d, want 1 with an error containing %q", args, code, errHas)
		}
		for _, want := range errHas {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("ronreport %v: error %q lacks %q", args, stderr.String(), want)
			}
		}
	} else if code != 0 {
		t.Fatalf("ronreport %v: exit %d: %s", args, code, stderr.String())
	}
	out := stdout.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if out == "" {
		lines = nil
	}
	for i, line := range lines {
		if i >= len(expect) {
			break
		}
		if line != expect[i] {
			t.Errorf("ronreport %v line %d:\n got %q\nwant %q", args, i+1, line, expect[i])
		}
	}
	if len(lines) != len(expect) {
		t.Errorf("ronreport %v printed %d lines, want %d:\n%s", args, len(lines), len(expect), out)
	}
}

// renderLines is a table rendered directly, as -render must print it.
func renderLines(tables ...string) []string {
	return strings.Split(strings.TrimSuffix(strings.Join(tables, ""), "\n"), "\n")
}

func TestStoreCommandLine(t *testing.T) {
	nCols := len(fixtureTables.Flatten(nil))
	inventory := func(kind, name string, replicas int, scenario string, cols int) string {
		return fmt.Sprintf("%-5s %-40s dataset=ronnarrow replicas=%d scenario=%s metrics=%d", kind, name, replicas, scenario, cols)
	}
	groupA := fixtureTables // group a's row: worst hour 0.5, as fixtureTables has it
	withHeader := func(name string, lines []string) []string {
		return append([]string{"=== " + name + " ==="}, lines...)
	}
	tornNotice := "(store: ignored 7 bytes of torn tail)"

	cases := []storeCase{
		{name: "query lists the selected rows",
			args: []string{"-query", "kind=group"},
			expect: []string{
				inventory("group", "a", 2, "0", nCols),
				inventory("group", "b", 2, "outage", nCols+1),
			}},
		{name: "query on an axis, a glob and an identity field together",
			args:   []string{"-query", "scenario=out*,name=*-r0[1-9],kind=cell"},
			expect: []string{inventory("cell", "b-r01", 1, "outage", nCols+1)}},
		{name: "no query selects everything",
			expect: []string{
				inventory("cell", "a-r00", 1, "0", nCols), inventory("cell", "a-r01", 1, "0", nCols),
				inventory("group", "a", 2, "0", nCols),
				inventory("cell", "b-r00", 1, "outage", nCols+1), inventory("cell", "b-r01", 1, "outage", nCols+1),
				inventory("group", "b", 2, "outage", nCols+1),
			}},
		{name: "metrics per row, a column some rows lack",
			args: []string{"-query", "kind=cell", "-metrics", "t6.worsthour,rs.outages"},
			expect: []string{
				"a-r00 t6.worsthour=0.25 rs.outages=-",
				"a-r01 t6.worsthour=0.75 rs.outages=-",
				"b-r00 t6.worsthour=0.5 rs.outages=3",
				"b-r01 t6.worsthour=1.5 rs.outages=3",
			}},
		{name: "group-by means",
			args: []string{"-query", "kind=cell", "-group-by", "scenario", "-metrics", "t6.worsthour,rs.outages"},
			expect: []string{
				"scenario=0 t6.worsthour n=2 mean=0.5",
				"scenario=0 rs.outages n=0",
				"scenario=outage t6.worsthour n=2 mean=1",
				"scenario=outage rs.outages n=2 mean=3",
			}},
		{name: "group-by with a quantile",
			args: []string{"-query", "kind=cell", "-group-by", "scenario", "-metrics", "t6.worsthour", "-quantile", "0.5"},
			expect: []string{
				"scenario=0 t6.worsthour n=2 mean=0.5 p50=0.75",
				"scenario=outage t6.worsthour n=2 mean=1 p50=1.5",
			}},
		{name: "quantile without group-by is one bucket",
			args:   []string{"-query", "kind=cell", "-metrics", "t6.worsthour", "-quantile", "0"},
			expect: []string{"(all) t6.worsthour n=4 mean=0.75 p0=0.25"}},
		{name: "render overview of one row is the bare table",
			args:   []string{"-query", "kind=group,name=a", "-render", "overview"},
			expect: renderLines(analysis.RenderTable5(groupA.Overview, groupA.LatencyLabel))},
		{name: "render table6 of several rows adds headers",
			args: []string{"-query", "group=a,kind=cell", "-render", "table6"},
			expect: append(
				withHeader("a-r00", renderLines(analysis.RenderTable6(withWorst(fixtureTables.Hours, 0.25)))),
				withHeader("a-r01", renderLines(analysis.RenderTable6(withWorst(fixtureTables.Hours, 0.75))))...)},
		{name: "torn tail is reported, then ignored", dir: &tornDir,
			args:   []string{"-query", "kind=group,name=b"},
			expect: []string{tornNotice, inventory("group", "b", 2, "outage", nCols+1)}},

		{name: "no rows selected",
			args:   []string{"-query", "scenario=storm"},
			errHas: []string{`query "scenario=storm" selected no rows`, "store has 6"}},
		{name: "misspelt column names its family's columns",
			args:   []string{"-query", "kind=cell", "-metrics", "t6.worsthuor"},
			errHas: []string{`"t6.worsthuor"`, "t6. columns are: ", "t6.direct.order, ", "t6.direct rand.gt10", "t6.worsthour"}},
		{name: "misspelt column among good ones prints nothing",
			args:   []string{"-query", "kind=cell", "-group-by", "scenario", "-metrics", "t6.worsthour,t5.direct.totl", "-quantile", "0.9"},
			errHas: []string{`"t5.direct.totl"`, "t5.direct.totlp"}},
		{name: "column of an unknown family lists the families",
			args:   []string{"-metrics", "wl.bp.losspct"},
			errHas: []string{`"wl.bp.losspct"`, "column families are: rs. t5. t6."}},
		{name: "column other rows carry, none selected",
			args:   []string{"-query", "scenario=0", "-metrics", "rs.outages"},
			errHas: []string{`no selected row has a metric column "rs.outages"`, "rs. columns are: rs.outages"}},
		{name: "quantile above 1",
			args:   []string{"-query", "kind=cell", "-metrics", "t6.worsthour", "-quantile", "1.5"},
			errHas: []string{"-quantile 1.5: want a value in [0, 1]"}},
		{name: "quantile NaN",
			args:   []string{"-query", "kind=cell", "-metrics", "t6.worsthour", "-quantile", "NaN"},
			errHas: []string{"-quantile NaN: want a value in [0, 1]"}},
		{name: "unknown render kind",
			args:   []string{"-query", "name=a", "-render", "table7"},
			errHas: []string{`unknown -render kind "table7"`}},
		{name: "row without the asked table",
			args:   []string{"-query", "name=a", "-render", "workload"},
			errHas: []string{"row a carries no workload table"}},
		{name: "malformed query",
			args:   []string{"-query", "scenario"},
			errHas: []string{`bad predicate "scenario"`}},
		{name: "metrics naming no column",
			args:   []string{"-metrics", ","},
			errHas: []string{`-metrics "," names no column`}},
		{name: "trace-file flags are refused",
			args:   []string{"-hosts", "3", "-dataset", "ronfoo", "bogus.trc"},
			errHas: []string{"-hosts: -store and -sweep read no trace files"}},
		{name: "a given -methods is refused",
			args:   []string{"-methods", "direct"},
			errHas: []string{"-methods: -store and -sweep read no trace files"}},
		{name: "a trace file argument is refused",
			args:   []string{"-query", "kind=group", "bogus.trc"},
			errHas: []string{"trace file arguments: -store and -sweep read no trace files"}},
		{name: "-sweep with -store is refused",
			args:   []string{"-sweep", "elsewhere"},
			errHas: []string{"-sweep with -store: give one of the two"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runStoreCase(t, tc) })
	}
}

func withWorst(h analysis.Table6, worst float64) analysis.Table6 {
	h.WorstHourPct = worst
	return h
}

// TestStorePathForms: -store takes the output directory or the segment
// file itself, and a missing segment is an error, not an empty answer.
func TestStorePathForms(t *testing.T) {
	want := []string{fmt.Sprintf("%-5s %-40s dataset=ronnarrow replicas=2 scenario=0 metrics=%d", "group", "a", len(fixtureTables.Flatten(nil)))}
	seg := resultstore.SegmentPath(fixtureDir)
	runStoreCase(t, storeCase{dir: &seg, args: []string{"-query", "kind=group,name=a"}, expect: want})
	missing := filepath.Join(t.TempDir(), "nothing-here")
	runStoreCase(t, storeCase{dir: &missing, errHas: []string{resultstore.SegmentFileName}})
}
