package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// sweepDays keeps sweep-test campaigns short: ~15 virtual minutes is
// enough probes to populate every counter.
const sweepDays = 0.01

// runSweep expands and runs spec, failing the test on any error.
func runSweep(t *testing.T, spec SweepSpec) *SweepResult {
	t.Helper()
	s, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSweepGridExpansion(t *testing.T) {
	spec := SweepSpec{
		Datasets: []Dataset{RON2003, RONnarrow},
		Days:     sweepDays,
		BaseSeed: 7,
		Replicas: 3,
		Axes: []Axis{
			mustAxis(t, "profile", "", "ls2-es1"),
			HysteresisAxis(0, 0.25),
		},
	}
	s, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := s.Cells()
	if want := 2 * 2 * 2 * 3; len(cells) != want {
		t.Fatalf("expanded %d cells, want %d", len(cells), want)
	}
	seeds := map[uint64]string{}
	groups := map[int]int{}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
		if prev, dup := seeds[c.Seed]; dup {
			t.Errorf("cells %s and %s share seed %d", prev, c.Name(), c.Seed)
		}
		seeds[c.Seed] = c.Name()
		groups[c.Group]++
	}
	if len(groups) != 8 {
		t.Errorf("got %d groups, want 8", len(groups))
	}
	for g, n := range groups {
		if n != 3 {
			t.Errorf("group %d has %d replicas, want 3", g, n)
		}
	}
	// Replicas vary only the seed within a group.
	if cells[0].GroupName() != cells[1].GroupName() {
		t.Errorf("replica group names differ: %q vs %q",
			cells[0].GroupName(), cells[1].GroupName())
	}
	if cells[0].Name() == cells[1].Name() {
		t.Errorf("replica cell names collide: %q", cells[0].Name())
	}
}

func TestSweepRejectsDuplicateGridPoints(t *testing.T) {
	// Cell names become output paths, so duplicated axis values must be
	// an expansion error, not two cells racing on one trace file.
	for name, spec := range map[string]SweepSpec{
		"dataset": {Datasets: []Dataset{RONnarrow, RONnarrow}, Days: sweepDays},
		"hysteresis": {Datasets: []Dataset{RONnarrow}, Days: sweepDays,
			Axes: []Axis{HysteresisAxis(0.25, 0.25)}},
		"profile": {Datasets: []Dataset{RONnarrow}, Days: sweepDays,
			Axes: []Axis{{def: &profileDef, vals: []AxisValue{"", ""}}}},
		"axis twice": {Datasets: []Dataset{RONnarrow}, Days: sweepDays,
			Axes: []Axis{HysteresisAxis(0), HysteresisAxis(0.25)}},
	} {
		if _, err := NewSweep(spec); err == nil {
			t.Errorf("%s: NewSweep accepted a duplicated axis value", name)
		}
	}
}

// TestSweepReplicaCounts: 0 replicas means one, as Days 0 means the
// default length; a negative count is an error naming it, not a
// silent one-replica sweep.
func TestSweepReplicaCounts(t *testing.T) {
	s, err := NewSweep(SweepSpec{Datasets: []Dataset{RONnarrow}, Days: sweepDays})
	if err != nil || len(s.Cells()) != 1 {
		t.Fatalf("Replicas 0: %v, want one cell", err)
	}
	if _, err := NewSweep(SweepSpec{Datasets: []Dataset{RONnarrow}, Days: sweepDays, Replicas: -1}); err == nil || !strings.Contains(err.Error(), "-1") {
		t.Errorf("Replicas -1: error %v, want one naming the count", err)
	}
}

func TestSweepSeedsStableAcrossGridGrowth(t *testing.T) {
	small := SweepSpec{Datasets: []Dataset{RONnarrow}, Days: sweepDays,
		BaseSeed: 1, Replicas: 2}
	big := small
	big.Replicas = 5
	big.Axes = []Axis{
		HysteresisAxis(0, 0.5),
		mustAxis(t, "probeinterval", "0", "30s"),
		mustAxis(t, "losswindow", "0", "50"),
	}
	sSmall, err := NewSweep(small)
	if err != nil {
		t.Fatal(err)
	}
	sBig, err := NewSweep(big)
	if err != nil {
		t.Fatal(err)
	}
	// The small grid's cells keep their seeds inside the bigger grid:
	// seeds derive from coordinates, not the flat index.
	bigSeeds := map[string]uint64{}
	for _, c := range sBig.Cells() {
		bigSeeds[c.Name()] = c.Seed
	}
	for _, c := range sSmall.Cells() {
		if got, ok := bigSeeds[c.Name()]; !ok || got != c.Seed {
			t.Errorf("cell %s: seed %d in small grid, %d (present=%v) in big",
				c.Name(), c.Seed, got, ok)
		}
	}
}

// renderGroup renders a merged grid point exactly as ronsim writes it,
// so byte comparison covers the full merged-table surface.
func renderGroup(g *GroupResult) string {
	return analysis.RenderTable5(g.Merged.Table5Rows(), g.Merged.LatencyLabel()) +
		analysis.RenderTable6(g.Merged.Agg.HighLossHours())
}

// TestSweepDeterminismAcrossParallelism is the regression test for the
// sweep engine's core contract: the merged tables are byte-identical
// whether cells run serially or across a worker pool.
func TestSweepDeterminismAcrossParallelism(t *testing.T) {
	spec := SweepSpec{
		Datasets: []Dataset{RONnarrow},
		Days:     sweepDays,
		BaseSeed: 42,
		Replicas: 4,
		Axes:     []Axis{HysteresisAxis(0, 0.25)},
	}
	serial := spec
	serial.Parallel = 1
	parallel := spec
	parallel.Parallel = 4

	rs := runSweep(t, serial)
	rp := runSweep(t, parallel)
	if len(rs.Groups) != len(rp.Groups) {
		t.Fatalf("group counts differ: %d vs %d", len(rs.Groups), len(rp.Groups))
	}
	for g := range rs.Groups {
		ser, par := renderGroup(&rs.Groups[g]), renderGroup(&rp.Groups[g])
		if ser != par {
			t.Errorf("group %s: merged tables differ between -parallel=1 and -parallel=4\nserial:\n%s\nparallel:\n%s",
				rs.Groups[g].Name(), ser, par)
		}
	}
}

func TestSweepMergedMatchesCellSums(t *testing.T) {
	res := runSweep(t, SweepSpec{
		Datasets: []Dataset{RONnarrow},
		Days:     sweepDays,
		BaseSeed: 3,
		Replicas: 3,
	})
	if len(res.Groups) != 1 {
		t.Fatalf("got %d groups, want 1", len(res.Groups))
	}
	g := &res.Groups[0]
	var ron, meas, changes, probes, mergedProbes int64
	for _, c := range g.Cells {
		ron += c.Res.RONProbes
		meas += c.Res.MeasureProbes
		changes += c.Res.RouteChanges
		for m := range c.Res.Agg.Methods() {
			probes += c.Res.Agg.Totals(m).Probes
		}
	}
	if g.Merged.RONProbes != ron || g.Merged.MeasureProbes != meas ||
		g.Merged.RouteChanges != changes {
		t.Errorf("merged counters (%d,%d,%d) != cell sums (%d,%d,%d)",
			g.Merged.RONProbes, g.Merged.MeasureProbes, g.Merged.RouteChanges,
			ron, meas, changes)
	}
	for m := range g.Merged.Agg.Methods() {
		mergedProbes += g.Merged.Agg.Totals(m).Probes
	}
	if mergedProbes != probes {
		t.Errorf("merged aggregator has %d probes, cells total %d",
			mergedProbes, probes)
	}
	// Replicas with different seeds are genuinely different campaigns.
	if g.Cells[0].Res.MeasureProbes == g.Cells[1].Res.MeasureProbes &&
		g.Cells[0].Res.RouteChanges == g.Cells[1].Res.RouteChanges {
		t.Errorf("replicas 0 and 1 look identical; seed derivation suspect")
	}
}

func TestSweepConfigureHook(t *testing.T) {
	var seen []string
	spec := SweepSpec{
		Datasets: []Dataset{RONnarrow},
		Days:     sweepDays,
		Replicas: 2,
		Configure: func(c Cell, cfg *Config) {
			seen = append(seen, c.Name())
			if cfg.Seed != c.Seed {
				t.Errorf("cell %s: cfg seed %d != cell seed %d",
					c.Name(), cfg.Seed, c.Seed)
			}
		},
	}
	if _, err := NewSweep(spec); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("Configure ran %d times, want 2", len(seen))
	}
	// Invalid configs surface at expansion time with the cell name.
	spec.Configure = func(c Cell, cfg *Config) { cfg.ProbeInterval = 0 }
	if _, err := NewSweep(spec); err == nil {
		t.Error("NewSweep accepted a Configure that broke the config")
	}
}

func TestSweepManifestRoundTrip(t *testing.T) {
	res := runSweep(t, SweepSpec{
		Datasets: []Dataset{RONnarrow},
		Days:     sweepDays,
		BaseSeed: 9,
		Replicas: 2,
	})
	m := res.Manifest(func(c Cell) string {
		return filepath.Join("traces", c.Name()+".trc")
	}, func(c Cell) string {
		return CellSnapshotRelPath(c.Name())
	})
	dir := t.TempDir()
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Groups) != 1 {
		t.Fatalf("manifest has %d groups, want 1", len(got.Groups))
	}
	g := got.Groups[0]
	if g.Dataset != "RONnarrow" || g.Hosts != 17 || len(g.Methods) == 0 {
		t.Errorf("manifest group = %+v", g)
	}
	if len(g.Cells) != 2 || g.Cells[0].Trace == "" ||
		g.Cells[0].Seed != res.Cells[0].Cell.Seed {
		t.Errorf("manifest cells = %+v", g.Cells)
	}
	if got.Version != ManifestVersion || got.BaseSeed != 9 {
		t.Errorf("manifest version/baseSeed = %d/%d", got.Version, got.BaseSeed)
	}
	// The manifest serializes the full grid dimensions: datasets, replica
	// count, and every axis (standard ones included) with its values.
	if got.Replicas != 2 || len(got.Datasets) != 1 || got.Datasets[0] != "RONnarrow" {
		t.Errorf("manifest replicas/datasets = %d/%v", got.Replicas, got.Datasets)
	}
	if len(got.Axes) != 4 || got.Axes[0].Name != "profile" ||
		got.Axes[1].Name != "hysteresis" || got.Axes[2].Name != "probeinterval" ||
		got.Axes[3].Name != "losswindow" {
		t.Errorf("manifest axes = %+v", got.Axes)
	}
	// The recorded spec re-expands to the identical grid.
	spec, err := got.SweepSpec()
	if err != nil {
		t.Fatal(err)
	}
	re, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range re.Cells() {
		if c.Name() != res.Cells[i].Cell.Name() || c.Seed != res.Cells[i].Cell.Seed {
			t.Errorf("reconstructed cell %d = %s/%d, want %s/%d", i,
				c.Name(), c.Seed, res.Cells[i].Cell.Name(), res.Cells[i].Cell.Seed)
		}
	}
	if g.Cells[0].Snapshot != CellSnapshotRelPath(res.Cells[0].Cell.Name()) {
		t.Errorf("manifest snapshot path = %q", g.Cells[0].Snapshot)
	}
	// Unsupported versions are rejected.
	bad := *got
	bad.Version = 99
	if err := bad.Write(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Error("ReadManifest accepted version 99")
	}
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Error("ReadManifest succeeded with no manifest present")
	}
}

func TestManifestCorruptAndUnknownAxis(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Error("ReadManifest accepted corrupt JSON")
	}

	// A manifest naming an axis this binary has not registered must
	// fail spec reconstruction with an error naming the axis — never
	// silently drop the dimension.
	m := &SweepManifest{
		Version:  ManifestVersion,
		BaseSeed: 1,
		Replicas: 1,
		Datasets: []string{"RONnarrow"},
		Axes: []ManifestAxis{
			{Name: "profile", Values: []string{""}},
			{Name: "warpfactor", Values: []string{"1", "9"}},
		},
	}
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("reading a manifest with an unknown axis must succeed (report tools only need groups): %v", err)
	}
	if _, err := loaded.SweepSpec(); err == nil {
		t.Error("SweepSpec() accepted an unregistered axis")
	} else if !strings.Contains(err.Error(), "warpfactor") {
		t.Errorf("unknown-axis error does not name the axis: %v", err)
	}
}
