package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/experiment"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/trace"
)

// The -sweep and -store -reindex command lines over a real sweep
// directory: RONnarrow × hysteresis {0, 0.25} × 2 replicas, with
// snapshots, traces, store and manifest as `ronsim -sweep -out DIR -trace
// DIR/traces` leaves them. Each case damages its own copy and lists the
// lines the command must then print.

const (
	cellA0, cellA1 = "ronnarrow-r00", "ronnarrow-r01"
	cellB0, cellB1 = "ronnarrow-h0.25-r00", "ronnarrow-h0.25-r01"
	headerA        = "=== ronnarrow: RONnarrow, 17 hosts, "
	headerB        = "=== ronnarrow-h0.25: RONnarrow, 17 hosts, "
)

var sweepFixture struct {
	once sync.Once
	dir  string // under TestMain's root
	err  error
}

// writeSweep runs a sweep into dir as `ronsim -sweep -out DIR -trace
// DIR/traces` would leave it — 0.01-day cells, base seed 5, two
// replicas, unless opts say otherwise — with snapshots, traces, store,
// manifest, and every complete grid point's files under merged/, named
// as ronsim names them.
func writeSweep(dir string, opts ...experiment.Option) error {
	if err := os.MkdirAll(filepath.Join(dir, "traces"), 0o755); err != nil {
		return err
	}
	traceRel := func(c core.Cell) string { return filepath.Join("traces", c.Name()+".trc") }
	var closers []func() error
	var traceErr error
	e, err := experiment.New(append([]experiment.Option{
		experiment.Days(0.01),
		experiment.Seed(5),
		experiment.Replicas(2),
		experiment.Output(dir),
		experiment.Configure(func(c core.Cell, cfg *core.Config) {
			f, err := os.Create(filepath.Join(dir, traceRel(c)))
			if err != nil {
				traceErr = err
				return
			}
			w, err := trace.NewWriter(f)
			if err != nil {
				traceErr = err
				return
			}
			// Each sink writes only its own file, so no locking.
			cfg.TraceSink = func(r trace.Record) { w.Append(r) }
			closers = append(closers, w.Flush, f.Close)
		}),
	}, opts...)...)
	if err != nil {
		return err
	}
	res, err := e.Run()
	for _, c := range closers {
		if cerr := c(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = traceErr
	}
	if err != nil {
		return err
	}
	for _, g := range res.Groups {
		if !g.Complete() {
			continue
		}
		gdir := filepath.Join(dir, core.MergedDirName, g.Name())
		if err := os.MkdirAll(gdir, 0o755); err != nil {
			return err
		}
		prefix := strings.ToLower(g.Dataset.String()) + "-"
		for _, a := range g.Merged.Artifacts() {
			if err := os.WriteFile(filepath.Join(gdir, prefix+a.Name), []byte(a.Text), 0o644); err != nil {
				return err
			}
		}
	}
	return e.WriteManifest(res, dir, traceRel)
}

// sweepCopy returns a private copy of the fixture sweep directory:
// RONnarrow × hysteresis {0, 0.25} × 2 replicas.
func sweepCopy(t *testing.T) string {
	t.Helper()
	sweepFixture.once.Do(func() {
		sweepFixture.err = writeSweep(sweepFixture.dir,
			experiment.Datasets(experiment.RONnarrow),
			experiment.AxisValues("hysteresis", "0", "0.25"))
	})
	if sweepFixture.err != nil {
		t.Fatal(sweepFixture.err)
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(sweepFixture.dir)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// newSweep writes a sweep with writeSweep into a fresh directory.
func newSweep(t *testing.T, opts ...experiment.Option) string {
	t.Helper()
	dir := t.TempDir()
	if err := writeSweep(dir, opts...); err != nil {
		t.Fatal(err)
	}
	return dir
}

// dropSnapshot removes a cell's snapshot; dropTrace also removes its
// trace file and the manifest's record of it.
func dropSnapshot(t *testing.T, dir, cell string) {
	t.Helper()
	if err := os.Remove(core.CellSnapshotPath(dir, cell)); err != nil {
		t.Fatal(err)
	}
}

func dropTrace(t *testing.T, dir, cell string) {
	t.Helper()
	m, err := core.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range m.Groups {
		for ci := range m.Groups[gi].Cells {
			if c := &m.Groups[gi].Cells[ci]; c.Name == cell {
				if err := os.Remove(filepath.Join(dir, c.Trace)); err != nil {
					t.Fatal(err)
				}
				c.Trace = ""
			}
		}
	}
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
}

// editGroup rewrites one group of the manifest.
func editGroup(t *testing.T, dir, group string, mutate func(*core.ManifestGroup)) {
	t.Helper()
	m, err := core.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range m.Groups {
		if m.Groups[gi].Name == group {
			mutate(&m.Groups[gi])
		}
	}
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
}

// foreignSeed rewrites a cell's snapshot as a valid one for another
// seed — debris from a rerun with a different base seed — and returns
// the error every reader must report for it.
func foreignSeed(t *testing.T, dir, cell string) string {
	t.Helper()
	path := core.CellSnapshotPath(dir, cell)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.ParseCellSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	want := snap.Seed
	snap.Seed++
	if _, err := snap.WriteFileBuf(path, nil); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("core: cell snapshot %s is for %s seed %d, cell is %s seed %d: snapshot belongs to another grid",
		path, cell, snap.Seed, cell, want)
}

// corrupt overwrites a cell's snapshot with junk and returns the
// reader's error for it.
func corrupt(t *testing.T, dir, cell string) string {
	t.Helper()
	path := core.CellSnapshotPath(dir, cell)
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("core: cell snapshot %s: too short", path)
}

// gridCell re-expands the grid of the manifest in dir and returns it
// with the expansion index of the named cell.
func gridCell(t *testing.T, dir, cell string) (*core.Sweep, int) {
	t.Helper()
	m, err := core.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Sweep(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range s.Cells() {
		if c.Name() == cell {
			return s, c.Index
		}
	}
	t.Fatalf("no cell %s in the grid of %s", cell, dir)
	return nil, 0
}

// snapRes is a cell read from its snapshot under dir.
func snapRes(t *testing.T, dir, cell string) *core.Result {
	t.Helper()
	s, i := gridCell(t, dir, cell)
	res, err := s.ReadCell(i, dir)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// traceRes is a cell rebuilt from its trace under dir.
func traceRes(t *testing.T, dir, cell string) *core.Result {
	t.Helper()
	s, i := gridCell(t, dir, cell)
	res := s.EmptyResult(i)
	if _, _, _, err := aggregateTraces(io.Discard, res.Agg, []string{filepath.Join(dir, "traces", cell+".trc")}); err != nil {
		t.Fatal(err)
	}
	return res
}

// tables is what -sweep prints under a grid point's header: the given
// replicas folded in order, every section of their tables under its
// title.
func tables(t *testing.T, results ...*core.Result) string {
	t.Helper()
	merged, err := core.MergeResults(results)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	printSections(&b, core.StoreTables(merged))
	return b.String()
}

func TestSweepCommandLine(t *testing.T) {
	const banner = "sweep manifest: 2 grid points\n\n"
	type sweepCase struct {
		name   string
		damage func(t *testing.T, dir string) (expect string)
		errHas []string
	}
	cases := []sweepCase{
		{name: "every cell from its snapshot",
			damage: func(t *testing.T, dir string) string {
				return banner +
					headerA + "2 replicas combined (2 from snapshots, 0 from traces) ===\n" +
					tables(t, snapRes(t, dir, cellA0), snapRes(t, dir, cellA1)) +
					headerB + "2 replicas combined (2 from snapshots, 0 from traces) ===\n" +
					tables(t, snapRes(t, dir, cellB0), snapRes(t, dir, cellB1))
			}},
		{name: "a cell with neither snapshot nor trace is named missing",
			damage: func(t *testing.T, dir string) string {
				dropSnapshot(t, dir, cellB1)
				dropTrace(t, dir, cellB1)
				return banner +
					headerA + "2 replicas combined (2 from snapshots, 0 from traces) ===\n" +
					tables(t, snapRes(t, dir, cellA0), snapRes(t, dir, cellA1)) +
					headerB + "1 replicas combined (1 from snapshots, 0 from traces; MISSING " + cellB1 + ") ===\n" +
					tables(t, snapRes(t, dir, cellB0))
			}},
		{name: "a foreign-seed snapshot discredits the cell's trace too",
			damage: func(t *testing.T, dir string) string {
				msg := foreignSeed(t, dir, cellA0)
				return banner +
					"(cell " + cellA0 + ": " + msg + "; not trusting its trace either)\n" +
					headerA + "1 replicas combined (1 from snapshots, 0 from traces; MISSING " + cellA0 + ") ===\n" +
					tables(t, snapRes(t, dir, cellA1)) +
					headerB + "2 replicas combined (2 from snapshots, 0 from traces) ===\n" +
					tables(t, snapRes(t, dir, cellB0), snapRes(t, dir, cellB1))
			}},
		// A trace is replayed only for a cell with no snapshot file: a
		// corrupt snapshot proves no more about its trace than a
		// foreign one does.
		{name: "a trace-only cell is replayed, a corrupt one is missing",
			damage: func(t *testing.T, dir string) string {
				dropSnapshot(t, dir, cellA1)
				msg := corrupt(t, dir, cellB0)
				return banner +
					headerA + "2 replicas combined (1 from snapshots, 1 from traces) ===\n" +
					tables(t, snapRes(t, dir, cellA0), traceRes(t, dir, cellA1)) +
					"(cell " + cellB0 + ": " + msg + "; not trusting its trace either)\n" +
					headerB + "1 replicas combined (1 from snapshots, 0 from traces; MISSING " + cellB0 + ") ===\n" +
					tables(t, snapRes(t, dir, cellB1))
			}},
		{name: "a grid point with nothing is reported, not fatal",
			damage: func(t *testing.T, dir string) string {
				for _, c := range []string{cellB0, cellB1} {
					dropSnapshot(t, dir, c)
					dropTrace(t, dir, c)
				}
				return banner +
					headerA + "2 replicas combined (2 from snapshots, 0 from traces) ===\n" +
					tables(t, snapRes(t, dir, cellA0), snapRes(t, dir, cellA1)) +
					"=== ronnarrow-h0.25: no snapshots or traces found (run the shard, or rerun ronsim -sweep with -out/-trace) ===\n\n"
			}},
		{name: "nothing anywhere is an error",
			damage: func(t *testing.T, dir string) string {
				for _, c := range []string{cellA0, cellA1, cellB0, cellB1} {
					dropSnapshot(t, dir, c)
					dropTrace(t, dir, c)
				}
				return banner +
					"=== ronnarrow: no snapshots or traces found (run the shard, or rerun ronsim -sweep with -out/-trace) ===\n\n" +
					"=== ronnarrow-h0.25: no snapshots or traces found (run the shard, or rerun ronsim -sweep with -out/-trace) ===\n\n"
			},
			errHas: []string{"no grid point had snapshots or traces under"}},
		{name: "a manifest axis no linked package registers is refused",
			damage: func(t *testing.T, dir string) string {
				m, err := core.ReadManifest(dir)
				if err != nil {
					t.Fatal(err)
				}
				m.Axes = append(m.Axes, core.ManifestAxis{Name: "warpfactor", Values: []string{"1"}})
				if err := m.Write(dir); err != nil {
					t.Fatal(err)
				}
				return ""
			},
			errHas: []string{`core: manifest axis "warpfactor": core: axis "warpfactor" is not registered in this binary`}},
	}
	// A manifest whose group disagrees with its own grid is refused
	// before anything is printed, even with a cell left to rebuild from
	// its trace.
	for _, bad := range []struct {
		name   string
		mutate func(*core.ManifestGroup)
		errHas string
	}{
		{"hosts -1", func(g *core.ManifestGroup) { g.Hosts = -1 }, "core: manifest group ronnarrow does not match its grid: hosts -1, grid has 17"},
		{"hosts 0", func(g *core.ManifestGroup) { g.Hosts = 0 }, "core: manifest group ronnarrow does not match its grid: hosts 0, grid has 17"},
		{"hosts 70000", func(g *core.ManifestGroup) { g.Hosts = 70000 }, "core: manifest group ronnarrow does not match its grid: hosts 70000, grid has 17"},
		{"no methods", func(g *core.ManifestGroup) { g.Methods = []string{} }, `core: manifest group ronnarrow does not match its grid: methods [], grid has ["loss" "direct rand" "lat loss"]`},
	} {
		cases = append(cases, sweepCase{name: "a manifest group with " + bad.name + " is refused",
			damage: func(t *testing.T, dir string) string {
				dropSnapshot(t, dir, cellA0)
				editGroup(t, dir, "ronnarrow", bad.mutate)
				return ""
			},
			errHas: []string{bad.errHas}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := sweepCopy(t)
			var expect []string
			if out := tc.damage(t, dir); out != "" {
				expect = renderLines(out)
			}
			runCLI(t, []string{"-sweep", dir}, expect, tc.errHas)
		})
	}
}

// TestTraceFilesCommandLine: the trace-file form over one of the sweep's
// real traces, and -hosts values that cannot size a mesh refused before
// any file is read — the missing second file is never reached.
func TestTraceFilesCommandLine(t *testing.T) {
	dir := sweepCopy(t)
	trc := filepath.Join(dir, "traces", cellA0+".trc")
	missing := filepath.Join(dir, "traces", "missing.trc")
	methods := snapRes(t, dir, cellA0).Agg.Methods()
	agg := analysis.NewAggregator(methods, 17)
	records, _, matched, err := aggregateTraces(io.Discard, agg, []string{trc})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	printSections(&b, resultstore.Tables{Overview: agg.Table5(), Hours: agg.HighLossHours()})
	good := fmt.Sprintf("merged %d records from 1 logs\nmatched %d probe observations\n\n", records, matched) + b.String()
	cases := []struct {
		hosts  string
		files  []string
		expect []string
		errHas []string
	}{
		{hosts: "17", files: []string{trc}, expect: renderLines(good)},
		{hosts: "-1", files: []string{trc, missing}, errHas: []string{"route: mesh of -1 nodes is below the 2-node minimum"}},
		{hosts: "0", files: []string{trc, missing}, errHas: []string{"route: mesh of 0 nodes is below the 2-node minimum"}},
		{hosts: "70000", files: []string{trc, missing}, errHas: []string{"route: mesh of 70000 nodes exceeds MaxMeshNodes"}},
	}
	for _, tc := range cases {
		t.Run("hosts="+tc.hosts, func(t *testing.T) {
			args := append([]string{"-hosts", tc.hosts, "-methods", strings.Join(methods, ",")}, tc.files...)
			runCLI(t, args, tc.expect, tc.errHas)
		})
	}
}

// TestTraceDatasetMatchesCampaign is `ronsim -dataset D -days 0.01
// -seed 2 -trace f.trc` then `ronreport -dataset D f.trc`: the trace
// form prints the campaign's own Table 5, with its inferred direct* and
// lat* rows, and Table 6, line for line — for RONwide its Table 7, whose
// latencies are round trips the trace records as such.
func TestTraceDatasetMatchesCampaign(t *testing.T) {
	for _, tc := range []struct {
		dataset core.Dataset
		shows   []string
	}{
		{core.RONnarrow, []string{"\ndirect* ", "\nlat* "}},
		{core.RONwide, []string{"Table 7 (expanded routing schemes, RTT latencies)"}},
	} {
		t.Run(tc.dataset.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "f.trc")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			tw, err := trace.NewWriter(f)
			if err != nil {
				t.Fatal(err)
			}
			var werr error
			e, err := experiment.New(experiment.Datasets(tc.dataset), experiment.Days(0.01),
				experiment.Configure(func(_ core.Cell, cfg *core.Config) {
					cfg.Seed = 2
					cfg.TraceSink = func(r trace.Record) {
						if werr == nil {
							werr = tw.Append(r)
						}
					}
				}))
			if err != nil {
				t.Fatal(err)
			}
			sr, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := errors.Join(werr, tw.Flush()); err != nil {
				t.Fatal(err)
			}
			res := sr.Cells[0].Res
			var b strings.Builder
			printSections(&b, core.StoreTables(res))
			for _, s := range tc.shows {
				if !strings.Contains(b.String(), s) {
					t.Fatalf("the campaign's tables lack %q:\n%s", s, b.String())
				}
			}
			want := fmt.Sprintf("merged %d records from 1 logs\nmatched %d probe observations\n\n", tw.Count(), res.MeasureProbes) + b.String()
			runCLI(t, []string{"-dataset", strings.ToLower(tc.dataset.String()), path}, renderLines(want), nil)
			runCLI(t, []string{"-dataset", "ronfoo", path}, nil, []string{`unknown dataset "ronfoo"`})
		})
	}
}

func TestReindexCommandLine(t *testing.T) {
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string) (expect []string)
		// grouped: every grid point ends with a group row whose -render
		// equals its files under merged/.
		grouped bool
	}{
		{name: "a full store gains nothing", grouped: true,
			damage: func(t *testing.T, dir string) []string {
				return []string{"reindex: added 0 cell and 0 group rows (0 cells missing); store now holds 6 rows"}
			}},
		{name: "a deleted store is rebuilt whole", grouped: true,
			damage: func(t *testing.T, dir string) []string {
				if err := os.Remove(resultstore.SegmentPath(dir)); err != nil {
					t.Fatal(err)
				}
				return []string{"reindex: added 4 cell and 2 group rows (0 cells missing); store now holds 6 rows"}
			}},
		// Two live -cells shards each append their cells' rows, and
		// neither completes a grid point. Every grid point lacks its
		// group row, so every cell row is appended again (readers
		// dedupe by identity) beside the group rows.
		{name: "cell rows from two live shards gain their group rows", grouped: true,
			damage: func(t *testing.T, dir string) []string {
				if err := os.Remove(resultstore.SegmentPath(dir)); err != nil {
					t.Fatal(err)
				}
				for _, shard := range []string{"*-r00", "*-r01"} {
					e, err := experiment.New(experiment.Datasets(experiment.RONnarrow),
						experiment.AxisValues("hysteresis", "0", "0.25"), experiment.Days(0.01),
						experiment.Seed(5), experiment.Replicas(2), experiment.Output(dir), experiment.Shard(shard))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := e.Run(); err != nil {
						t.Fatal(err)
					}
				}
				runCLI(t, []string{"-store", dir, "-query", "kind=group"}, nil,
					[]string{`query "kind=group" selected no rows (store has 4)`})
				return []string{"reindex: added 4 cell and 2 group rows (0 cells missing); store now holds 10 rows"}
			}},
		{name: "absent, foreign and corrupt snapshots are skipped, and only the first silently",
			damage: func(t *testing.T, dir string) []string {
				if err := os.Remove(resultstore.SegmentPath(dir)); err != nil {
					t.Fatal(err)
				}
				dropSnapshot(t, dir, cellA0)
				foreign := foreignSeed(t, dir, cellA1)
				junk := corrupt(t, dir, cellB1)
				return []string{
					"cell " + cellA1 + ": ignoring unusable snapshot: " + foreign,
					"cell " + cellB1 + ": ignoring unusable snapshot: " + junk,
					"reindex: added 1 cell and 0 group rows (3 cells missing); store now holds 1 rows",
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := sweepCopy(t)
			expect := tc.damage(t, dir)
			runCLI(t, []string{"-store", dir, "-reindex"}, expect, nil)
			if !tc.grouped {
				return
			}
			for _, g := range []string{"ronnarrow", "ronnarrow-h0.25"} {
				for render, file := range map[string]string{"overview": "table5", "table6": "table6"} {
					want, err := os.ReadFile(filepath.Join(dir, core.MergedDirName, g, "ronnarrow-"+file+".txt"))
					if err != nil {
						t.Fatal(err)
					}
					runCLI(t, []string{"-store", dir, "-query", "kind=group,name=" + g, "-render", render}, renderLines(string(want)), nil)
				}
			}
		})
	}
}

// TestDrillCommandLine pins -drill over the fixture sweep's four cells:
// each distribution, with and without -quantile, one per grid point
// (hysteresis 0 and 0.25, two replicas each) and never the two pooled,
// and the two ways a drill is refused.
func TestDrillCommandLine(t *testing.T) {
	dir := sweepCopy(t)
	drill := func(spec string, quantile ...string) []string {
		return append([]string{"-query", "kind=cell", "-drill", spec}, quantile...)
	}
	cases := []storeCase{
		{name: "pathloss", args: drill("pathloss"), expect: []string{
			"drill pathloss in ronnarrow over 2 cells (14 samples; 14 of 272 paths with ≥ 50 probes)",
			"mean=0 p50=0 p90=0 p95=0 p99=0 max=0",
			"drill pathloss in ronnarrow-h0.25 over 2 cells (17 samples; 17 of 272 paths with ≥ 50 probes)",
			"mean=0 p50=0 p90=0 p95=0 p99=0 max=0"}},
		{name: "pathloss quantile", args: drill("pathloss", "-quantile", "0.99"), expect: []string{
			"drill pathloss in ronnarrow over 2 cells (14 samples; 14 of 272 paths with ≥ 50 probes)",
			"p99=0",
			"drill pathloss in ronnarrow-h0.25 over 2 cells (17 samples; 17 of 272 paths with ≥ 50 probes)",
			"p99=0"}},
		{name: "win20", args: drill("win20:loss"), expect: []string{
			"drill win20:loss in ronnarrow over 2 cells (544 samples)",
			"mean=0.0005662496840176793 p50=0 p90=0 p95=0 p99=0.037037037037037035 max=0.05263157894736842",
			"drill win20:loss in ronnarrow-h0.25 over 2 cells (544 samples)",
			"mean=0.0010839573744639988 p50=0 p90=0 p95=0 p99=0.05 max=0.125"}},
		{name: "win20 quantile", args: drill("win20:loss", "-quantile", "0.99"), expect: []string{
			"drill win20:loss in ronnarrow over 2 cells (544 samples)",
			"p99=0.037037037037037035",
			"drill win20:loss in ronnarrow-h0.25 over 2 cells (544 samples)",
			"p99=0.05"}},
		{name: "win20 one group", args: []string{"-query", "kind=cell,group=ronnarrow-h0.25", "-drill", "win20:loss"}, expect: []string{
			"drill win20:loss in ronnarrow-h0.25 over 2 cells (544 samples)",
			"mean=0.0010839573744639988 p50=0 p90=0 p95=0 p99=0.05 max=0.125"}},
		{name: "clp", args: drill("clp:direct rand"), expect: []string{
			"drill clp:direct rand in ronnarrow over 2 cells (11 samples)",
			"mean=72.72727272727273 p50=100 p90=100 p95=100 p99=100 max=100",
			"drill clp:direct rand in ronnarrow-h0.25 over 2 cells (9 samples)",
			"mean=44.44444444444444 p50=0 p90=100 p95=100 p99=100 max=100"}},
		{name: "clp quantile", args: drill("clp:direct rand", "-quantile", "0.25"), expect: []string{
			"drill clp:direct rand in ronnarrow over 2 cells (11 samples)",
			"p25=0",
			"drill clp:direct rand in ronnarrow-h0.25 over 2 cells (9 samples)",
			"p25=0"}},
		{name: "latency", args: drill("latency:lat loss"), expect: []string{
			"drill latency:lat loss in ronnarrow over 2 cells (90 samples)",
			"mean=79.22313895773047 p50=71.8824858125 p90=113.6353595862069 p95=114.349249825 p99=124.39717319354838 max=124.39717319354838",
			"drill latency:lat loss in ronnarrow-h0.25 over 2 cells (90 samples)",
			"mean=83.59501687803089 p50=71.42650976470588 p90=123.4718391395349 p95=136.82351797435896 p99=149.20030487179488 max=149.20030487179488"}},
		{name: "latency quantile", args: drill("latency:lat loss", "-quantile", "0.5"), expect: []string{
			"drill latency:lat loss in ronnarrow over 2 cells (90 samples)",
			"p50=71.8824858125",
			"drill latency:lat loss in ronnarrow-h0.25 over 2 cells (90 samples)",
			"p50=71.42650976470588"}},
		{name: "unknown method", args: drill("clp:direct"),
			errHas: []string{`drill clp: unknown method "direct" (have: loss, direct rand, lat loss)`}},
		{name: "no snapshot-backed cell rows", args: []string{"-query", "kind=group", "-drill", "pathloss"},
			errHas: []string{"drill-down needs snapshot-backed cell rows; none selected"}},
	}
	for _, tc := range cases {
		tc.dir = &dir
		t.Run(tc.name, func(t *testing.T) { runStoreCase(t, tc) })
	}
}

// mergedOutput is what -sweep must print over a sweep directory whose
// every cell has its snapshot: per grid point the header, then each
// table file the sweep wrote under merged/<group>/, byte for byte,
// under its section's title.
func mergedOutput(t *testing.T, dir string) string {
	t.Helper()
	m, err := core.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	titles := map[string]string{
		"table5":     "Table 5 (one-way loss percentages)",
		"table6":     "Table 6 (hour-long high-loss periods)",
		"workload":   "Workload (delivered application frames)",
		"resilience": "Resilience (recovery from injected outages)",
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sweep manifest: %d grid points\n\n", len(m.Groups))
	for _, g := range m.Groups {
		n := len(g.Cells)
		fmt.Fprintf(&b, "=== %s: %s, %d hosts, %d replicas combined (%d from snapshots, 0 from traces) ===\n",
			g.Name, g.Dataset, g.Hosts, n, n)
		for _, sec := range []string{"table5", "table6", "workload", "resilience"} {
			text, err := os.ReadFile(filepath.Join(dir, core.MergedDirName, g.Name, strings.ToLower(g.Dataset)+"-"+sec+".txt"))
			if errors.Is(err, fs.ErrNotExist) {
				continue
			} else if err != nil {
				t.Fatal(err)
			}
			title := titles[sec]
			if sec == "table5" && g.Dataset == "RONwide" {
				title = "Table 7 (expanded routing schemes, RTT latencies)"
			}
			fmt.Fprintf(&b, "%s\n%s\n", title, text)
		}
	}
	return b.String()
}

// runSweepCLI runs -sweep over dir and returns what it printed.
func runSweepCLI(t *testing.T, dir string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sweep", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("ronreport -sweep %s: exit %d: %s", dir, code, stderr.String())
	}
	return stdout.String()
}

// TestSweepTablesMatchMerged: -sweep prints every table section the
// sweep wrote under merged/, titled, byte for byte — RONnarrow grid
// points with the paper's inferred direct* and lat* rows, a RONwide
// cell's Table 7 with RTT latencies, and a scripted-outage cell's
// resilience table.
func TestSweepTablesMatchMerged(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dir   func(t *testing.T) string
		shows []string
	}{
		{"ronnarrow hysteresis grid", sweepCopy, []string{"direct*", "lat*"}},
		{"ronwide cell", func(t *testing.T) string {
			return newSweep(t, experiment.Datasets(core.RONwide), experiment.Replicas(1))
		}, []string{"Table 7 (expanded routing schemes, RTT latencies)", "RTT"}},
		{"outage cell", func(t *testing.T) string {
			return newSweep(t, experiment.Datasets(experiment.RONnarrow), experiment.Replicas(1),
				experiment.AxisValues("scenario", "outage"))
		}, []string{"Resilience (recovery from injected outages)"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := tc.dir(t)
			got, want := runSweepCLI(t, dir), mergedOutput(t, dir)
			if got != want {
				t.Errorf("-sweep printed:\n%s\nwant the merged/ tables:\n%s", got, want)
			}
			for _, s := range tc.shows {
				if !strings.Contains(got, s) {
					t.Errorf("-sweep output lacks %q", s)
				}
			}
		})
	}
}

// TestAnotherDaysSnapshotRefused: a replica copied in from the same
// command at another -days has the seed its grid coordinates give, so
// only the admission check a resumed sweep runs tells it apart:
// -reindex adds no row for it, and -sweep combines neither it nor its
// trace, which shares its provenance.
func TestAnotherDaysSnapshotRefused(t *testing.T) {
	grid := func(days float64) string {
		return newSweep(t, experiment.Datasets(experiment.RONnarrow), experiment.Days(days), experiment.Seed(3))
	}
	dir, other := grid(0.002), grid(0.004)
	path := core.CellSnapshotPath(dir, cellA1)
	data, err := os.ReadFile(core.CellSnapshotPath(other, cellA1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(resultstore.SegmentPath(dir)); err != nil {
		t.Fatal(err)
	}
	reason := "core: cell snapshot " + path + ": days is 0.004, grid wants 0.002: snapshot belongs to another grid"
	runCLI(t, []string{"-store", dir, "-reindex"}, []string{
		"cell " + cellA1 + ": ignoring unusable snapshot: " + reason,
		"reindex: added 1 cell and 0 group rows (1 cells missing); store now holds 1 rows",
	}, nil)
	runCLI(t, []string{"-sweep", dir}, renderLines("sweep manifest: 1 grid points\n\n"+
		"(cell "+cellA1+": "+reason+"; not trusting its trace either)\n"+
		headerA+"1 replicas combined (1 from snapshots, 0 from traces; MISSING "+cellA1+") ===\n"+
		tables(t, snapRes(t, dir, cellA0))), nil)
}

// TestCustomAxisSweepReadable: ronreport links the tablerefresh axis
// ronsim sweeps, so over a -tablerefresh 0,5s sweep -reindex restores
// the t5s cells, -drill reads them, and -sweep prints their tables.
func TestCustomAxisSweepReadable(t *testing.T) {
	dir := newSweep(t, experiment.Datasets(experiment.RONnarrow), experiment.AxisValues("tablerefresh", "0", "5s"))
	if err := os.Remove(resultstore.SegmentPath(dir)); err != nil {
		t.Fatal(err)
	}
	runCLI(t, []string{"-store", dir, "-reindex"}, []string{
		"reindex: added 4 cell and 2 group rows (0 cells missing); store now holds 6 rows",
	}, nil)
	runCLI(t, []string{"-store", dir, "-query", "kind=cell,group=ronnarrow-t5s", "-drill", "win20:loss"}, []string{
		"drill win20:loss in ronnarrow-t5s over 2 cells (544 samples)",
		"mean=0.0013115552754131299 p50=0 p90=0 p95=0 p99=0.047619047619047616 max=0.10526315789473684",
	}, nil)
	if got, want := runSweepCLI(t, dir), mergedOutput(t, dir); got != want {
		t.Errorf("-sweep printed:\n%s\nwant the merged/ tables:\n%s", got, want)
	}
}
