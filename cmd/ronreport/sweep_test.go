package main

import (
	"fmt"
	"io"
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

func writeSweep(dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "traces"), 0o755); err != nil {
		return err
	}
	traceRel := func(c core.Cell) string { return filepath.Join("traces", c.Name()+".trc") }
	var closers []func() error
	var traceErr error
	e, err := experiment.New(
		experiment.Datasets(experiment.RONnarrow),
		experiment.Days(0.01),
		experiment.Seed(5),
		experiment.Replicas(2),
		experiment.AxisValues("hysteresis", "0", "0.25"),
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
	)
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
	return e.WriteManifest(res, dir, traceRel)
}

// sweepCopy returns a private copy of the fixture sweep directory.
func sweepCopy(t *testing.T) string {
	t.Helper()
	sweepFixture.once.Do(func() { sweepFixture.err = writeSweep(sweepFixture.dir) })
	if sweepFixture.err != nil {
		t.Fatal(sweepFixture.err)
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(sweepFixture.dir)); err != nil {
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
	snap, err := core.ReadCellSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	want := snap.Seed
	snap.Seed++
	if _, err := snap.WriteFileBuf(path, nil); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("core: cell snapshot %s is for %s seed %d, manifest wants %s seed %d: snapshot does not match manifest cell",
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

func snapAgg(t *testing.T, dir, cell string) *analysis.Aggregator {
	t.Helper()
	snap, err := core.ReadCellSnapshot(core.CellSnapshotPath(dir, cell))
	if err != nil {
		t.Fatal(err)
	}
	return snap.Aggregator()
}

func traceAgg(t *testing.T, dir, cell string) *analysis.Aggregator {
	t.Helper()
	methods := snapAgg(t, sweepFixture.dir, cell).Methods()
	agg, _, _, _, err := aggregateTraces(io.Discard, methods, 17, []string{filepath.Join(dir, "traces", cell+".trc")})
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// tables is what -sweep prints under a grid point's header: the given
// replicas merged in order.
func tables(t *testing.T, aggs ...*analysis.Aggregator) string {
	t.Helper()
	for _, a := range aggs[1:] {
		if err := aggs[0].Merge(a); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	printTables(&b, aggs[0])
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
					tables(t, snapAgg(t, dir, cellA0), snapAgg(t, dir, cellA1)) +
					headerB + "2 replicas combined (2 from snapshots, 0 from traces) ===\n" +
					tables(t, snapAgg(t, dir, cellB0), snapAgg(t, dir, cellB1))
			}},
		{name: "a cell with neither snapshot nor trace is named missing",
			damage: func(t *testing.T, dir string) string {
				dropSnapshot(t, dir, cellB1)
				dropTrace(t, dir, cellB1)
				return banner +
					headerA + "2 replicas combined (2 from snapshots, 0 from traces) ===\n" +
					tables(t, snapAgg(t, dir, cellA0), snapAgg(t, dir, cellA1)) +
					headerB + "1 replicas combined (1 from snapshots, 0 from traces; MISSING " + cellB1 + ") ===\n" +
					tables(t, snapAgg(t, dir, cellB0))
			}},
		{name: "a foreign-seed snapshot discredits the cell's trace too",
			damage: func(t *testing.T, dir string) string {
				msg := foreignSeed(t, dir, cellA0)
				return banner +
					"(cell " + cellA0 + ": " + msg + "; not trusting its trace either)\n" +
					headerA + "1 replicas combined (1 from snapshots, 0 from traces; MISSING " + cellA0 + ") ===\n" +
					tables(t, snapAgg(t, dir, cellA1)) +
					headerB + "2 replicas combined (2 from snapshots, 0 from traces) ===\n" +
					tables(t, snapAgg(t, dir, cellB0), snapAgg(t, dir, cellB1))
			}},
		{name: "a trace-only cell and a corrupt snapshot are rebuilt from traces",
			damage: func(t *testing.T, dir string) string {
				dropSnapshot(t, dir, cellA1)
				msg := corrupt(t, dir, cellB0)
				return banner +
					headerA + "2 replicas combined (1 from snapshots, 1 from traces) ===\n" +
					tables(t, snapAgg(t, dir, cellA0), traceAgg(t, dir, cellA1)) +
					"(cell " + cellB0 + ": unreadable snapshot: " + msg + "; falling back to trace)\n" +
					headerB + "2 replicas combined (1 from snapshots, 1 from traces) ===\n" +
					tables(t, traceAgg(t, dir, cellB0), snapAgg(t, dir, cellB1))
			}},
		{name: "a grid point with nothing is reported, not fatal",
			damage: func(t *testing.T, dir string) string {
				for _, c := range []string{cellB0, cellB1} {
					dropSnapshot(t, dir, c)
					dropTrace(t, dir, c)
				}
				return banner +
					headerA + "2 replicas combined (2 from snapshots, 0 from traces) ===\n" +
					tables(t, snapAgg(t, dir, cellA0), snapAgg(t, dir, cellA1)) +
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
	}
	// A group the manifest cannot size is refused before anything is
	// printed, even with a cell left to rebuild from its trace.
	for _, bad := range []struct {
		name   string
		mutate func(*core.ManifestGroup)
		errHas string
	}{
		{"hosts -1", func(g *core.ManifestGroup) { g.Hosts = -1 }, "group ronnarrow: route: mesh of -1 nodes is below the 2-node minimum"},
		{"hosts 0", func(g *core.ManifestGroup) { g.Hosts = 0 }, "group ronnarrow: route: mesh of 0 nodes is below the 2-node minimum"},
		{"hosts 70000", func(g *core.ManifestGroup) { g.Hosts = 70000 }, "group ronnarrow: route: mesh of 70000 nodes exceeds MaxMeshNodes"},
		{"no methods", func(g *core.ManifestGroup) { g.Methods = []string{} }, "group ronnarrow: no methods"},
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
	methods := snapAgg(t, dir, cellA0).Methods()
	agg, records, _, matched, err := aggregateTraces(io.Discard, methods, 17, []string{trc})
	if err != nil {
		t.Fatal(err)
	}
	good := fmt.Sprintf("merged %d records from 1 logs\nmatched %d probe observations\n\n", records, matched) +
		tables(t, agg)
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

func TestReindexCommandLine(t *testing.T) {
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string) (expect []string)
	}{
		{name: "a full store gains nothing",
			damage: func(t *testing.T, dir string) []string {
				return []string{"reindex: added 0 cell and 0 group rows (0 cells missing); store now holds 6 rows"}
			}},
		{name: "a deleted store is rebuilt whole",
			damage: func(t *testing.T, dir string) []string {
				if err := os.Remove(resultstore.SegmentPath(dir)); err != nil {
					t.Fatal(err)
				}
				return []string{"reindex: added 4 cell and 2 group rows (0 cells missing); store now holds 6 rows"}
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
					"(cell " + cellA1 + ": skipping snapshot: " + foreign + ")",
					"(cell " + cellB1 + ": skipping snapshot: " + junk + ")",
					"reindex: added 1 cell and 0 group rows (3 cells missing); store now holds 1 rows",
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := sweepCopy(t)
			expect := tc.damage(t, dir)
			runCLI(t, []string{"-store", dir, "-reindex"}, expect, nil)
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
			"drill pathloss in ronnarrow over 2 cells (14 samples)",
			"mean=0 p50=0 p90=0 p95=0 p99=0 max=0",
			"drill pathloss in ronnarrow-h0.25 over 2 cells (17 samples)",
			"mean=0 p50=0 p90=0 p95=0 p99=0 max=0"}},
		{name: "pathloss quantile", args: drill("pathloss", "-quantile", "0.99"), expect: []string{
			"drill pathloss in ronnarrow over 2 cells (14 samples)",
			"p99=0",
			"drill pathloss in ronnarrow-h0.25 over 2 cells (17 samples)",
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
