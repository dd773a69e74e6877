package experiment

import (
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// expDays keeps test campaigns at ~15 virtual minutes.
const expDays = 0.01

func TestSplitList(t *testing.T) {
	got := SplitList(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("SplitList = %v", got)
	}
	if got := SplitList(" , "); got != nil {
		t.Errorf("SplitList of blanks = %v, want nil", got)
	}
}

func TestParseList(t *testing.T) {
	got, err := ParseList("losswindow", "0,50, 200", strconv.Atoi)
	if err != nil || len(got) != 3 || got[0] != 0 || got[1] != 50 || got[2] != 200 {
		t.Errorf("ParseList = %v, %v", got, err)
	}
	if _, err := ParseList("losswindow", "1,bogus", strconv.Atoi); err == nil ||
		!strings.Contains(err.Error(), "-losswindow") {
		t.Errorf("ParseList error = %v, want flag-labeled parse failure", err)
	}
	if _, err := ParseList("losswindow", " , ", strconv.Atoi); err == nil {
		t.Error("ParseList accepted an empty list")
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	cases := map[string]Option{
		"bad axis value":    AxisValues("hysteresis", "-1"),
		"unknown axis":      AxisValues("warpfactor", "9"),
		"empty resume":      Resume(""),
		"empty output":      Output(""),
		"bad shard":         Shard("["),
		"negative replicas": Replicas(-1),
	}
	for name, opt := range cases {
		if _, err := New(opt); err == nil {
			t.Errorf("New accepted %s", name)
		}
	}
	// Shard syntax errors surface at New; dead shard terms at expansion.
	e, err := New(
		Datasets(RONnarrow), Days(expDays), Shard("no-such-cell-*"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Cells(); err == nil {
		t.Error("expansion accepted a shard filter matching no cell")
	}
}

func TestExperimentRunAndResume(t *testing.T) {
	dir := t.TempDir()
	build := func(extra ...Option) *Experiment {
		opts := append([]Option{
			Datasets(RONnarrow),
			Days(expDays),
			Seed(17),
			Replicas(2),
			AxisValues("losswindow", "0", "25"),
			Output(dir),
		}, extra...)
		e, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	var finished []string
	e := build(Progress(func(r core.CellResult) { finished = append(finished, r.Cell.Name()) }))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 || len(res.Groups) != 2 {
		t.Fatalf("run produced %d cells / %d groups, want 4/2", len(res.Cells), len(res.Groups))
	}
	if len(finished) != 4 {
		t.Errorf("progress saw %d cells, want 4", len(finished))
	}
	for _, c := range res.Cells {
		if _, err := readSnapshot(core.CellSnapshotPath(dir, c.Cell.Name())); err != nil {
			t.Errorf("cell %s: no persisted snapshot: %v", c.Cell.Name(), err)
		}
	}

	// A second run resuming from the same directory recomputes nothing.
	var warns int
	re := build(Resume(dir), Warn(func(string, ...any) { warns++ }))
	rres, err := re.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rres.Reused != 4 {
		t.Errorf("resume reused %d cells, want 4 (warned %d times)", rres.Reused, warns)
	}

	// Manifest round trip: all five axes, reconstructable.
	if err := e.WriteManifest(res, dir, nil); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != core.ManifestVersion || len(m.Groups) != 2 {
		t.Fatalf("manifest version/groups = %d/%d", m.Version, len(m.Groups))
	}
	spec, err := m.SweepSpec()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range s.Cells() {
		if c.Name() != res.Cells[i].Cell.Name() || c.Seed != res.Cells[i].Cell.Seed {
			t.Errorf("manifest round trip: cell %d = %s/%d, want %s/%d",
				i, c.Name(), c.Seed, res.Cells[i].Cell.Name(), res.Cells[i].Cell.Seed)
		}
	}
}

// TestResumeIntoNewOutputIsSelfContained: a sweep resumed from one
// complete directory into another writes every reused cell's snapshot
// under the new one, so the manifest it records there restores whole
// and merges to the same tables as the first run.
func TestResumeIntoNewOutputIsSelfContained(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	build := func(opts ...Option) *Experiment {
		e, err := New(append([]Option{Datasets(RONnarrow), Days(expDays), Seed(23), Replicas(2)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	first, err := build(Output(a)).Run()
	if err != nil {
		t.Fatal(err)
	}
	e := build(Resume(a), Output(b))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused != len(first.Cells) {
		t.Fatalf("resume reused %d cells, want %d", res.Reused, len(first.Cells))
	}
	if err := e.WriteManifest(res, b, nil); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Sweep(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range m.Groups {
		var results []*core.Result
		for _, i := range s.GroupCells(gi) {
			res, err := s.ReadCell(i, b)
			if err != nil {
				t.Fatalf("group %s: a cell does not restore from %s: %v", m.Groups[gi].Name, b, err)
			}
			results = append(results, res)
		}
		merged, err := core.MergeResults(results)
		if err != nil {
			t.Fatal(err)
		}
		want := first.Groups[gi].Merged.Artifacts()
		for k, art := range merged.Artifacts() {
			if art != want[k] {
				t.Errorf("group %s: %s restored from %s differs from the first run's", m.Groups[gi].Name, art.Name, b)
			}
		}
	}
	if len(m.Groups) != len(first.Groups) {
		t.Errorf("manifest under %s restores %d groups, want %d", b, len(m.Groups), len(first.Groups))
	}
}

func TestExperimentShardMatch(t *testing.T) {
	e, err := New(
		Datasets(RONnarrow), Days(expDays), Replicas(2), Shard("*-r00"),
	)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := e.Cells()
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, c := range cells {
		if e.Match(c) {
			matched++
		}
	}
	if matched != 1 || e.Shard() != "*-r00" {
		t.Errorf("shard matched %d cells (%q), want 1", matched, e.Shard())
	}
}

func TestRegisterAxisFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	collect := RegisterAxisValueFlags(fs)
	for _, name := range []string{"hysteresis", "probeinterval", "losswindow"} {
		if fs.Lookup(name) == nil {
			t.Errorf("no derived flag -%s", name)
		}
	}
	if fs.Lookup("profile") != nil {
		t.Error("the profile axis (no Usage) must not derive a flag")
	}
	if err := fs.Parse([]string{"-hysteresis", "0,0.25", "-losswindow", "0"}); err != nil {
		t.Fatal(err)
	}
	axes, err := collect()
	if err != nil {
		t.Fatal(err)
	}
	// Only hysteresis departed from its default; untouched and
	// default-valued flags must not materialize axes (which would
	// perturb custom-axis seeds).
	e, err := New(Datasets(RONnarrow), Days(expDays), Axes(axes...))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := e.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("derived-flag grid has %d cells, want 2 (hysteresis only)", len(cells))
	}
	plain, err := New(Datasets(RONnarrow), Days(expDays))
	if err != nil {
		t.Fatal(err)
	}
	pcells, err := plain.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Seed != pcells[0].Seed {
		t.Errorf("default-valued derived flags changed the base cell's seed")
	}

	// A bad flag value errors with the flag name.
	fs2 := flag.NewFlagSet("test2", flag.ContinueOnError)
	collect2 := RegisterAxisValueFlags(fs2)
	if err := fs2.Parse([]string{"-losswindow", "-5"}); err != nil {
		t.Fatal(err)
	}
	if _, err := collect2(); err == nil || !strings.Contains(err.Error(), "-losswindow") {
		t.Errorf("bad axis flag error = %v", err)
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
