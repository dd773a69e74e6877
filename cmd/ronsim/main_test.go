package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/experiment"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/trace"
)

// TestParsePositiveFloat: -lossscale and -edgeshare take finite
// values > 0, parsed by core's one profile rule.
func TestParsePositiveFloat(t *testing.T) {
	got, err := experiment.ParseList("lossscale", "1, 4,8", core.ParseProfileScale)
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 8 {
		t.Errorf("ParseList(ParseProfileScale) = %v, %v", got, err)
	}
	for _, bad := range []string{"0.25,bogus", " , ", "0", "-1", "NaN", "Inf", "-0"} {
		if _, err := experiment.ParseList("lossscale", bad, core.ParseProfileScale); err == nil {
			t.Errorf("ParseList(ParseProfileScale) accepted %q", bad)
		}
	}
}

// TestProfileVariants: -lossscale × -edgeshare cross into the profile
// axis, LossScale outermost; the (1,1) point is the calibrated default.
func TestProfileVariants(t *testing.T) {
	f := cmdFlags{lossScale: "1,4", edgeShare: "1,2",
		axes: func() ([]core.Axis, error) { return nil, nil }}
	axes, err := f.gridAxes()
	if err != nil {
		t.Fatal(err)
	}
	vs := axes[0].Values()
	if want := []core.AxisValue{"", "ls1-es2", "ls4-es1", "ls4-es2"}; !slices.Equal(vs, want) {
		t.Fatalf("profile values %q, want %q", vs, want)
	}
	var cfg core.Config
	if err := axes[0].Apply(vs[0], &cfg); err != nil || cfg.Profile != nil {
		t.Errorf("(1,1) should be the default profile, got %+v, %v", cfg.Profile, err)
	}
	if err := axes[0].Apply(vs[3], &cfg); err != nil || cfg.Profile == nil {
		t.Fatalf("(4,2) profile = %+v, %v", cfg.Profile, err)
	}
	if cfg.Profile.LossScale != 4 || cfg.Profile.EdgeShare != 2 {
		t.Errorf("variant profile knobs = %v/%v", cfg.Profile.LossScale, cfg.Profile.EdgeShare)
	}
}

func TestParseDataset(t *testing.T) {
	cases := map[string]bool{
		"ron2003": true, "RON2003": true, "ronwide": true,
		"RONnarrow": true, "bogus": false, "": false,
	}
	for in, ok := range cases {
		_, err := core.ParseDataset(in)
		if ok && err != nil {
			t.Errorf("ParseDataset(%q) failed: %v", in, err)
		}
		if !ok && err == nil {
			t.Errorf("ParseDataset(%q) accepted", in)
		}
	}
}

// TestTableRefreshAxisFlag: the registry-derived -tablerefresh flag
// parses through the custom axis's own factory, and a value list equal
// to the default is omitted (so untouched custom axes never perturb
// coordinate-derived seeds).
func TestTableRefreshAxisFlag(t *testing.T) {
	a, err := experiment.NewAxis("tablerefresh", "0", "1m")
	if err != nil {
		t.Fatal(err)
	}
	vals := a.Values()
	if len(vals) != 2 || vals[0] != "0s" || vals[1] != "1m0s" {
		t.Errorf("tablerefresh values = %v", vals)
	}
	if a.Label(vals[1]) != "-t1m0s" || a.Label(vals[0]) != "" {
		t.Errorf("tablerefresh labels = %q/%q", a.Label(vals[0]), a.Label(vals[1]))
	}
	for _, bad := range []string{"-5s", "bogus", "30"} {
		if _, err := experiment.NewAxis("tablerefresh", bad); err == nil {
			t.Errorf("tablerefresh accepted %q", bad)
		}
	}
}

// testSweepArgs is the tiny grid the CLI integration tests run — one
// dataset, two hysteresis grid points, two replicas each — followed by
// extra flags; a repeated flag overrides the grid's value.
func testSweepArgs(outDir string, extra ...string) []string {
	return append([]string{"-sweep", "-dataset", "ronnarrow", "-days", "0.01", "-seed", "5",
		"-replicas", "2", "-parallel", "2", "-hysteresis", "0,0.25", "-out", outDir}, extra...)
}

// ronsim runs the command line, fails the test unless it exits with
// code, and returns what it printed to stdout and stderr.
func ronsim(t *testing.T, code int, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if got := run(args, &out, &errOut); got != code {
		t.Fatalf("ronsim %s: exit %d, want %d\nstderr: %s", strings.Join(args, " "), got, code, errOut.String())
	}
	return out.String(), errOut.String()
}

// TestCommandLineErrors: each command line fails with exit 1 and
// exactly this one stderr line.
func TestCommandLineErrors(t *testing.T) {
	dir := t.TempDir()
	// A directory where Figure 6's data file belongs.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "fig6.dat"), 0o755); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   []string
		expect string
	}{
		{"fig6.dat unwritable", []string{"-dataset", "ron2003", "-days", "0.001", "-out", blocked},
			"open " + filepath.Join(blocked, "fig6.dat") + ": is a directory"},
		{"trace with serve", testSweepArgs(dir, "-serve", "127.0.0.1:0", "-trace", dir),
			"-trace is incompatible with -serve: traces are written where cells run; use -trace on a local sweep"},
		{"resume without out", testSweepArgs("", "-resume"),
			"-resume needs -out: snapshots live under the output directory"},
		{"merge-only without out", []string{"-sweep", "-merge-only"},
			"-merge-only needs -out pointing at a sweep output directory"},
		{"cells without sweep", []string{"-cells", "*-r00"}, "-cells requires -sweep"},
		{"value list without sweep", []string{"-hysteresis", "0,0.25"},
			"-hysteresis: a single campaign takes one value per axis; value lists need -sweep"},
		{"nodes list without sweep", []string{"-dataset", "ronnarrow", "-nodes", "0,96"},
			"-nodes: a single campaign takes one value per axis; value lists need -sweep"},
		{"replicas without sweep", []string{"-dataset", "ronnarrow", "-days", "0.001", "-replicas", "4"},
			"-replicas 4 requires -sweep"},
		{"trace under all without sweep", []string{"-all", "-days", "0.001", "-trace", filepath.Join(dir, "t.trc")},
			"-trace with -all requires -sweep"},
		{"trace unwritable", []string{"-dataset", "ronnarrow", "-days", "0.001", "-trace", filepath.Join(dir, "no", "t.trc")},
			"open " + filepath.Join(dir, "no", "t.trc") + ": no such file or directory"},
		{"unknown dataset", []string{"-dataset", "ron2002"},
			`core: unknown dataset "ron2002" (want ron2003, ronwide, ronnarrow)`},
		{"non-positive loss scale", testSweepArgs(dir, "-lossscale", "0"),
			`-lossscale: bad value "0": value 0 must be > 0`},
		{"loss-scale list without sweep", []string{"-dataset", "ronnarrow", "-days", "0.001", "-lossscale", "4,8"},
			"-lossscale/-edgeshare: a single campaign takes one value per axis; value lists need -sweep"},
		{"negative edge share without sweep", []string{"-dataset", "ronnarrow", "-days", "0.001", "-edgeshare", "-3"},
			`-edgeshare: bad value "-3": value -3 must be > 0`},
		{"loss scale NaN", testSweepArgs(dir, "-lossscale", "NaN"),
			`-lossscale: bad value "NaN": value NaN is not finite`},
		{"loss scale Inf", testSweepArgs(dir, "-lossscale", "Inf"),
			`-lossscale: bad value "Inf": value Inf is not finite`},
		{"hysteresis NaN", []string{"-dataset", "ronnarrow", "-days", "0.001", "-hysteresis", "NaN"},
			`-hysteresis: core: axis hysteresis: bad value "NaN": value NaN is not finite`},
		{"redundancy NaN", []string{"-dataset", "ronnarrow", "-days", "0.001", "-redundancy", "NaN"},
			`-redundancy: core: axis redundancy: bad value "NaN": value NaN is not finite`},
		{"hysteresis NaN in a grid", testSweepArgs(dir, "-hysteresis", "0,NaN"),
			`-hysteresis: core: axis hysteresis: bad value "NaN": value NaN is not finite`},
		{"hysteresis -0 is 0", testSweepArgs(dir, "-hysteresis", "0,-0"),
			`-hysteresis: core: axis hysteresis: duplicate value "0"`},
		{"days NaN", []string{"-dataset", "ronnarrow", "-days", "NaN"},
			"core: sweep cell ronnarrow-r00: core: Days = NaN, want > 0 and <= 106751"},
		{"days Inf", []string{"-dataset", "ronnarrow", "-days", "Inf"},
			"core: sweep cell ronnarrow-r00: core: Days = +Inf, want > 0 and <= 106751"},
		{"days 0", []string{"-dataset", "ronnarrow", "-days", "0"},
			"-days 0: want a positive virtual length"},
		{"days negative", []string{"-dataset", "ronnarrow", "-days", "-1"},
			"-days -1: want a positive virtual length"},
		{"days negative in a sweep", testSweepArgs(dir, "-days", "-1"),
			"-days -1: want a positive virtual length"},
		{"replicas 0", testSweepArgs(dir, "-replicas", "0"),
			"-replicas 0: want at least 1"},
		{"replicas negative", testSweepArgs(dir, "-replicas", "-1"),
			"-replicas -1: want at least 1"},
		{"days past the clock", testSweepArgs(dir, "-days", "1e300"),
			"core: sweep cell ronnarrow-r00: core: Days = 1e+300, want > 0 and <= 106751"},
		{"lease without serve", []string{"-dataset", "ronnarrow", "-days", "0.001", "-lease", "1m"},
			"-lease requires -serve"},
		{"lease on a local sweep", testSweepArgs(dir, "-lease", "1m"),
			"-lease requires -serve"},
		{"workername without worker", []string{"-dataset", "ronnarrow", "-days", "0.001", "-workername", "x"},
			"-workername requires -worker"},
		{"workername on a server", testSweepArgs(dir, "-serve", "127.0.0.1:0", "-workername", "x"),
			"-workername requires -worker"},
		{"memprofile unwritable", []string{"-dataset", "ronnarrow", "-days", "0.001", "-memprofile", filepath.Join(dir, "no", "mem.out")},
			"open " + filepath.Join(dir, "no", "mem.out") + ": no such file or directory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, stderr := ronsim(t, 1, tc.args...); stderr != "ronsim: "+tc.expect+"\n" {
				t.Errorf("stderr %q, want %q", stderr, "ronsim: "+tc.expect+"\n")
			}
		})
	}
}

// singleRun runs a 0.01-day RONnarrow campaign without -sweep, with
// extra flags, and returns its stdout less the (wall time) line.
func singleRun(t *testing.T, args ...string) string {
	t.Helper()
	out, _ := ronsim(t, 0, append([]string{"-dataset", "ronnarrow", "-days", "0.01"}, args...)...)
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "(wall time") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestSingleRunTakesProfileFlags: without -sweep, -lossscale and
// -edgeshare set the one campaign's substrate, and naming the
// calibrated (1, 1) point is the default run.
func TestSingleRunTakesProfileFlags(t *testing.T) {
	base := singleRun(t)
	if singleRun(t, "-lossscale", "4") == base {
		t.Error("-lossscale 4 printed the default run's report")
	}
	if singleRun(t, "-lossscale", "1", "-edgeshare", "1.0") != base {
		t.Error("-lossscale 1 -edgeshare 1.0 departed from the default run")
	}
}

// TestSingleRunMatchesGoldens: a run without -sweep writes the root
// golden campaigns' files under -out as <dataset>-<artifact> and prints
// each golden report, in dataset order, byte for byte; and a
// registry-derived axis flag (-nodes, -policy) sets the one campaign's
// world.
func TestSingleRunMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the golden campaigns")
	}
	goldens := filepath.Join("..", "..", "testdata", "golden")
	for _, tc := range []struct {
		name string
		args []string
		sets []string
	}{
		{"ronnarrow", []string{"-dataset", "ronnarrow"}, []string{"RONnarrow"}},
		{"all", []string{"-all"}, []string{"RON2003", "RONnarrow"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			out, _ := ronsim(t, 0, append(tc.args, "-days", "0.048", "-seed", "42", "-out", dir)...)
			for _, set := range tc.sets {
				entries, err := os.ReadDir(filepath.Join(goldens, set))
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					want, err := os.ReadFile(filepath.Join(goldens, set, e.Name()))
					if err != nil {
						t.Fatal(err)
					}
					if e.Name() == "report" {
						i := strings.Index(out, string(want))
						if i < 0 {
							t.Fatalf("stdout lacks the %s report in dataset order:\n%s", set, out)
						}
						out = out[i+len(want):]
						continue
					}
					name := strings.ToLower(set) + "-" + e.Name()
					if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil {
						t.Error(err)
					} else if !bytes.Equal(got, want) {
						t.Errorf("%s differs from %s", name, filepath.Join(set, e.Name()))
					}
				}
			}
		})
	}

	t.Run("nodes 96 landmark", func(t *testing.T) {
		lm := singleRun(t, "-nodes", "96", "-policy", "landmark")
		if !strings.Contains(lm, "dataset RONnarrow: 96 hosts, 9120 paths") {
			t.Errorf("-nodes 96 report does not name 96 hosts:\n%s", lm)
		}
		if lm == singleRun(t, "-nodes", "96") {
			t.Error("-policy landmark printed the full-mesh run's report")
		}
	})
}

// TestSingleRunTrace: without -sweep, -trace names the trace file
// itself. It holds every record the campaign emitted, or the header
// alone when it emitted none, and tracing moves no report byte.
func TestSingleRunTrace(t *testing.T) {
	dir := t.TempDir()
	for _, days := range []string{"0.01", "0.000001"} {
		path := filepath.Join(dir, days+".trc")
		traced := singleRun(t, "-days", days, "-trace", path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		records, err := trace.ReadAll(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("-days %s: %v", days, err)
		}
		if days == "0.01" && len(records) == 0 {
			t.Fatal("a 0.01-day campaign traced no records")
		}
		line := fmt.Sprintf("wrote %d trace records to %s\n", len(records), path)
		if plain := singleRun(t, "-days", days); strings.Replace(traced, line, "", 1) != plain {
			t.Errorf("-days %s: traced stdout is not the untraced one plus %q:\n%s", days, line, traced)
		}
	}
}

// readTree returns path → contents for every file under dir. The
// result-store segment is excluded: its row order depends on cell
// completion order (and killed runs legitimately re-append rows), so
// tree-equality checks would flag spurious diffs; the store's own
// contract is covered by the resultstore tests and the byte-identical
// query renders.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		if info.Name() == resultstore.SegmentFileName {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func diffTrees(t *testing.T, label string, want, got map[string]string) {
	t.Helper()
	for path := range want {
		if _, ok := got[path]; !ok {
			t.Errorf("%s: missing file %s", label, path)
		} else if want[path] != got[path] {
			t.Errorf("%s: file %s differs", label, path)
		}
	}
	for path := range got {
		if _, ok := want[path]; !ok {
			t.Errorf("%s: unexpected file %s", label, path)
		}
	}
}

// TestShardMergeOnlyMatchesSingleRun drives the full CLI workflow the
// README documents: one unsharded run; the same grid as two disjoint
// -cells shards into a second directory; -merge-only to rebuild
// merged/. Every merged table and figure must be byte-identical, and
// the per-cell artifacts (snapshots included) must match too.
func TestShardMergeOnlyMatchesSingleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several sweep campaigns")
	}
	single, sharded := t.TempDir(), t.TempDir()
	ronsim(t, 0, testSweepArgs(single)...)
	for _, shard := range []string{"*-r00", "*-r01"} {
		ronsim(t, 0, testSweepArgs(sharded, "-cells", shard)...)
	}
	cells := readTree(t, filepath.Join(sharded, core.CellsDirName))
	seg, err := os.ReadFile(resultstore.SegmentPath(sharded))
	if err != nil {
		t.Fatal(err)
	}
	ronsim(t, 0, "-sweep", "-merge-only", "-out", sharded)
	diffTrees(t, "merged",
		readTree(t, filepath.Join(single, core.MergedDirName)),
		readTree(t, filepath.Join(sharded, core.MergedDirName)))
	diffTrees(t, "cells",
		readTree(t, filepath.Join(single, core.CellsDirName)),
		readTree(t, filepath.Join(sharded, core.CellsDirName)))
	// -merge-only reads the shards' output and writes only merged/.
	diffTrees(t, "cells after -merge-only", cells, readTree(t, filepath.Join(sharded, core.CellsDirName)))
	if after, err := os.ReadFile(resultstore.SegmentPath(sharded)); err != nil || !bytes.Equal(after, seg) {
		t.Errorf("-merge-only changed %s (read error %v)", resultstore.SegmentPath(sharded), err)
	}
}

// TestMergeOnlyReportsMissingCells: with one shard absent, merge-only
// must still rebuild the complete grid points and name the missing
// cells rather than fail or fabricate — in exactly these words, which
// operators paste back into -cells.
func TestMergeOnlyReportsMissingCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sweep campaigns")
	}
	dir := t.TempDir()
	// Everything except ronnarrow-h0.25-r01.
	ronsim(t, 0, testSweepArgs(dir, "-cells", "*-r00,ronnarrow-r01")...)
	s := manifestSweep(t, dir)
	var replicas []*core.Result
	for _, i := range s.GroupCells(0) {
		res, err := s.ReadCell(i, dir)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, res)
	}
	merged, err := core.MergeResults(replicas)
	if err != nil {
		t.Fatal(err)
	}
	banner := fmt.Sprintf("merge-only: 2 grid points in %s\n\n", filepath.Join(dir, core.ManifestName))
	got, _ := ronsim(t, 0, "-sweep", "-merge-only", "-out", dir)
	want := banner +
		"=== merged ronnarrow: 2 replicas from snapshots ===\n" + merged.Report() + "\n" +
		"=== ronnarrow-h0.25: MISSING 1/2 cells ===\n" +
		"    ronnarrow-h0.25-r01 [dataset=RONnarrow hysteresis=0.25 replica=1]\n\n" +
		fmt.Sprintf("merge-only: rebuilt 1/2 merged grid points under %s\n", filepath.Join(dir, core.MergedDirName)) +
		"missing grid points: ronnarrow-h0.25\n" +
		"re-run exactly the missing cells with: -sweep ... -cells ronnarrow-h0.25-r01\n"
	if got != want {
		t.Errorf("merge-only printed:\n%s\nwant:\n%s", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, core.MergedDirName, "ronnarrow")); err != nil {
		t.Errorf("complete group not merged: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, core.MergedDirName, "ronnarrow-h0.25")); err == nil {
		t.Error("incomplete group was merged despite a missing cell")
	}
	// A corrupted snapshot counts as missing, not as data, and says why.
	snapPath := core.CellSnapshotPath(dir, "ronnarrow-r00")
	if err := os.WriteFile(snapPath, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, core.MergedDirName)); err != nil {
		t.Fatal(err)
	}
	got, stderr := ronsim(t, 1, "-sweep", "-merge-only", "-out", dir)
	if stderr != "ronsim: no grid point had a complete set of cell snapshots\n" {
		t.Errorf("merge-only with no complete grid point: stderr %q", stderr)
	}
	want = banner +
		fmt.Sprintf("cell ronnarrow-r00: ignoring unusable snapshot: core: cell snapshot %s: too short\n", snapPath) +
		"=== ronnarrow: MISSING 1/2 cells ===\n" +
		"    ronnarrow-r00 [dataset=RONnarrow replica=0]\n\n" +
		"=== ronnarrow-h0.25: MISSING 1/2 cells ===\n" +
		"    ronnarrow-h0.25-r01 [dataset=RONnarrow hysteresis=0.25 replica=1]\n\n" +
		fmt.Sprintf("merge-only: rebuilt 0/2 merged grid points under %s\n", filepath.Join(dir, core.MergedDirName)) +
		"missing grid points: ronnarrow, ronnarrow-h0.25\n" +
		"re-run exactly the missing cells with: -sweep ... -cells ronnarrow-r00,ronnarrow-h0.25-r01\n"
	if got != want {
		t.Errorf("merge-only over a corrupt snapshot printed:\n%s\nwant:\n%s", got, want)
	}
}

// TestMergeOnlyRefusesAnotherDaysSnapshot: a replica copied in from the
// same command at another -days carries the seed its grid coordinates
// give, so only the admission check tells it apart. -merge-only lists it
// missing with the reason -resume gives for it, and merges nothing.
func TestMergeOnlyRefusesAnotherDaysSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sweep campaigns")
	}
	grid := func(dir, days string, extra ...string) []string {
		return append([]string{"-sweep", "-dataset", "ronnarrow", "-days", days,
			"-replicas", "2", "-seed", "3", "-out", dir}, extra...)
	}
	dir, other := t.TempDir(), t.TempDir()
	ronsim(t, 0, grid(dir, "0.002")...)
	ronsim(t, 0, grid(other, "0.004")...)
	path := core.CellSnapshotPath(dir, "ronnarrow-r01")
	data, err := os.ReadFile(core.CellSnapshotPath(other, "ronnarrow-r01"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, core.MergedDirName)); err != nil {
		t.Fatal(err)
	}
	reason := "core: cell snapshot " + path + ": days is 0.004, grid wants 0.002: snapshot belongs to another grid"
	got, stderr := ronsim(t, 1, "-sweep", "-merge-only", "-out", dir)
	want := fmt.Sprintf("merge-only: 1 grid points in %s\n\n", filepath.Join(dir, core.ManifestName)) +
		"cell ronnarrow-r01: ignoring unusable snapshot: " + reason + "\n" +
		"=== ronnarrow: MISSING 1/2 cells ===\n" +
		"    ronnarrow-r01 [dataset=RONnarrow replica=1]\n\n" +
		fmt.Sprintf("merge-only: rebuilt 0/1 merged grid points under %s\n", filepath.Join(dir, core.MergedDirName)) +
		"missing grid points: ronnarrow\n" +
		"re-run exactly the missing cells with: -sweep ... -cells ronnarrow-r01\n"
	if got != want || stderr != "ronsim: no grid point had a complete set of cell snapshots\n" {
		t.Errorf("merge-only over another -days replica printed:\n%s%s\nwant:\n%s", got, stderr, want)
	}
	if out, _ := ronsim(t, 0, grid(dir, "0.002", "-resume")...); !strings.Contains(out, "cell ronnarrow-r01: ignoring unusable snapshot: "+reason+"\n") {
		t.Errorf("-resume does not give the same reason; printed:\n%s", out)
	}
}

// TestOldFormatsRefused: every persisted format has one version, and an
// artifact of any other is refused by number, never half-understood — a
// version 2 manifest, a version 1 cell snapshot (CRC intact), and an
// aggregator payload led by each of the four retired codec bytes. Over a
// directory of such snapshots -merge-only lists every cell as missing
// and -resume warns, recomputes and ends where a clean run does.
func TestOldFormatsRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sweep campaigns")
	}
	dir := t.TempDir()
	ronsim(t, 0, testSweepArgs(dir)...)
	clean := readTree(t, dir)
	m, err := core.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := manifestSweep(t, dir)
	var payload []byte
	for i, c := range s.Cells() {
		res, err := s.ReadCell(i, dir)
		if err != nil {
			t.Fatal(err)
		}
		if payload, err = res.Agg.AppendBinary(nil); err != nil {
			t.Fatal(err)
		}
		path := core.CellSnapshotPath(dir, c.Name())
		snap, err := readSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		snap.Version = 1
		if _, err := snap.WriteFileBuf(path, nil); err != nil {
			t.Fatal(err)
		}
	}

	type refusal struct {
		name string
		read func() error
		want string
	}
	cases := []refusal{
		{"manifest version 2", func() error {
			old := *m
			old.Version = 2
			oldDir := t.TempDir()
			if err := old.Write(oldDir); err != nil {
				t.Fatal(err)
			}
			_, err := core.ReadManifest(oldDir)
			return err
		}, "unsupported sweep manifest version 2 (want 3)"},
		{"cell snapshot version 1", func() error {
			_, err := readSnapshot(core.CellSnapshotPath(dir, "ronnarrow-r00"))
			return err
		}, "unsupported version 1 (want 2)"},
	}
	for v := byte(1); v <= 4; v++ {
		cases = append(cases, refusal{fmt.Sprintf("aggregator codec %d", v), func() error {
			old := append([]byte(nil), payload...)
			old[0] = v
			_, err := analysis.UnmarshalAggregator(old)
			return err
		}, fmt.Sprintf("unsupported aggregator snapshot version %d (want %d)", v, analysis.SnapshotCodecVersion)})
	}
	for _, tc := range cases {
		if err := tc.read(); err == nil {
			t.Errorf("%s was accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not say %q", tc.name, err, tc.want)
		}
	}

	out, _ := ronsim(t, 1, "-sweep", "-merge-only", "-out", dir)
	for _, g := range m.Groups {
		for ci, c := range g.Cells {
			for _, want := range []string{
				fmt.Sprintf("cell %s: ignoring unusable snapshot: core: cell snapshot %s: unsupported version 1 (want 2)\n",
					c.Name, filepath.Join(dir, c.Snapshot)),
				fmt.Sprintf("    %s [%s]\n", c.Name, g.CellCoords(ci)),
			} {
				if !strings.Contains(out, want) {
					t.Errorf("merge-only did not print %q; got:\n%s", want, out)
				}
			}
		}
	}

	out, _ = ronsim(t, 0, testSweepArgs(dir, "-resume")...)
	if n := strings.Count(out, "ignoring unusable snapshot: core: cell snapshot"); n != 4 {
		t.Errorf("resume warned about %d of 4 version 1 snapshots; got:\n%s", n, out)
	}
	if !strings.Contains(out, "(0 cells reused)") {
		t.Errorf("resume reused version 1 snapshots; got:\n%s", out)
	}
	diffTrees(t, "recomputed output", clean, readTree(t, dir))
}

// TestResumeCompletesKilledSweep: a partial shard run stands in for a
// sweep killed midway; -resume must finish the grid reusing the
// snapshots and end with output identical to an uninterrupted run.
func TestResumeCompletesKilledSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several sweep campaigns")
	}
	clean, killed := t.TempDir(), t.TempDir()
	ronsim(t, 0, testSweepArgs(clean)...)
	ronsim(t, 0, testSweepArgs(killed, "-cells", "*-r00")...)
	ronsim(t, 0, testSweepArgs(killed, "-resume")...)
	diffTrees(t, "resumed output", readTree(t, clean), readTree(t, killed))
}

// TestManifestKeepsPriorArtifactPaths: a rerun that records fewer
// artifacts (here: -resume without -trace) must not blank the prior
// manifest's references to trace files that are still on disk.
func TestManifestKeepsPriorArtifactPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sweep campaigns")
	}
	dir := t.TempDir()
	ronsim(t, 0, testSweepArgs(dir, "-trace", filepath.Join(dir, "traces"))...)
	countTraces := func() int {
		m, err := core.ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, g := range m.Groups {
			for _, c := range g.Cells {
				if c.Trace != "" {
					n++
				}
			}
		}
		return n
	}
	before := countTraces()
	if before != 4 {
		t.Fatalf("traced run recorded %d trace paths, want 4", before)
	}
	ronsim(t, 0, testSweepArgs(dir, "-resume")...) // no -trace this time
	if after := countTraces(); after != before {
		t.Errorf("resume without -trace kept %d/%d manifest trace paths", after, before)
	}
}

// TestCustomAxisShardMergeMatchesSingleRun drives the tablerefresh
// axis — defined purely against the public experiment API — through
// the full distributed workflow: sharded runs, snapshot persistence,
// the manifest, and merge-only recombination must be byte-identical to
// an unsharded run, exactly like the built-in axes.
func TestCustomAxisShardMergeMatchesSingleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several sweep campaigns")
	}
	// Hysteresis back at its default drops that axis from the grid.
	withAxis := func(dir string, extra ...string) []string {
		return testSweepArgs(dir, append([]string{"-hysteresis", "0", "-tablerefresh", "0,5s"}, extra...)...)
	}
	single, sharded := t.TempDir(), t.TempDir()
	ronsim(t, 0, withAxis(single)...)
	for _, shard := range []string{"*-r00", "*-r01"} {
		ronsim(t, 0, withAxis(sharded, "-cells", shard)...)
	}
	ronsim(t, 0, "-sweep", "-merge-only", "-out", sharded)
	if _, err := os.Stat(filepath.Join(single, core.MergedDirName, "ronnarrow-t5s")); err != nil {
		t.Fatalf("custom-axis grid point missing from single run: %v", err)
	}
	diffTrees(t, "merged",
		readTree(t, filepath.Join(single, core.MergedDirName)),
		readTree(t, filepath.Join(sharded, core.MergedDirName)))
	diffTrees(t, "cells",
		readTree(t, filepath.Join(single, core.CellsDirName)),
		readTree(t, filepath.Join(sharded, core.CellsDirName)))
	// The manifest serialized the custom axis like any standard one.
	m, err := experiment.LoadManifest(single)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range m.Axes {
		if a.Name == "tablerefresh" && len(a.Values) == 2 && a.Values[1] == "5s" {
			found = true
		}
	}
	if !found {
		t.Errorf("manifest axes lack tablerefresh: %+v", m.Axes)
	}
}

func TestFracFormatting(t *testing.T) {
	if frac(-1) != "infeasible" {
		t.Error("negative fraction should render infeasible")
	}
	if frac(0.5) != "0.5000" {
		t.Errorf("frac(0.5) = %q", frac(0.5))
	}
}

// readSnapshot parses the cell snapshot file at path.
func readSnapshot(path string) (*core.CellSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return core.ParseCellSnapshot(data)
}

// manifestSweep re-expands the grid of the sweep manifest in dir.
func manifestSweep(t *testing.T, dir string) *core.Sweep {
	t.Helper()
	m, err := core.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Sweep(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
