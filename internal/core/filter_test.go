package core

import (
	"strconv"
	"testing"
	"time"
)

func filterGrid(t *testing.T) []Cell {
	t.Helper()
	s, err := NewSweep(SweepSpec{
		Datasets: []Dataset{RON2003, RONnarrow},
		Days:     sweepDays,
		Replicas: 2,
		Axes:     []Axis{HysteresisAxis(0, 0.25)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s.Cells()
}

// cellValue returns the cell's coordinate on the named axis.
func cellValue(c Cell, axis string) (AxisValue, bool) {
	for i, a := range c.Axes {
		if a.Name() == axis {
			return c.Coords[i], true
		}
	}
	return "", false
}

func TestParseCellFilterForms(t *testing.T) {
	cells := filterGrid(t) // 2 datasets × 2 hysteresis × 2 replicas = 8 cells
	count := func(spec string) int {
		f, err := ParseCellFilter(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		n := 0
		for _, c := range cells {
			if f.Match(c) {
				n++
			}
		}
		return n
	}

	if got := count("0"); got != 1 {
		t.Errorf("index term selected %d cells, want 1", got)
	}
	if got := count("0-3"); got != 4 {
		t.Errorf("range term selected %d cells, want 4", got)
	}
	if got := count("ron2003-r00"); got != 1 {
		t.Errorf("exact name selected %d cells, want 1", got)
	}
	// A group name selects all its replicas.
	if got := count("ron2003"); got != 2 {
		t.Errorf("group name selected %d cells, want 2", got)
	}
	if got := count("*-r00"); got != 4 {
		t.Errorf("replica glob selected %d cells, want 4", got)
	}
	if got := count("ronnarrow-*"); got != 4 {
		t.Errorf("dataset glob selected %d cells, want 4 (incl. hysteresis variants)", got)
	}
	if got := count("0-1,ronnarrow-*"); got != 6 {
		t.Errorf("union selected %d cells, want 6", got)
	}

	// Two complementary shards partition the grid.
	a, _ := ParseCellFilter("*-r00")
	b, _ := ParseCellFilter("*-r01")
	for _, c := range cells {
		if a.Match(c) == b.Match(c) {
			t.Errorf("cell %s is in %d shards, want exactly 1", c.Name(), b2i(a.Match(c))+b2i(b.Match(c)))
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestParseCellFilterErrors(t *testing.T) {
	for _, bad := range []string{"", " , ", "[", "7-3"} {
		if _, err := ParseCellFilter(bad); err == nil {
			t.Errorf("ParseCellFilter(%q) accepted", bad)
		}
	}
}

func TestCellFilterValidateCatchesDeadTerms(t *testing.T) {
	cells := filterGrid(t)
	f, err := ParseCellFilter("*-r00,tpyo-*")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(cells); err == nil {
		t.Error("Validate missed a term matching no cell")
	}
	ok, err := ParseCellFilter("*-r00,99")
	if err != nil {
		t.Fatal(err)
	}
	// Index 99 is out of range for 8 cells: dead term.
	if err := ok.Validate(cells); err == nil {
		t.Error("Validate missed an out-of-range index")
	}
	good, err := ParseCellFilter("*-r00,*-r01")
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(cells); err != nil {
		t.Errorf("Validate rejected a fully live filter: %v", err)
	}
}

// TestSweepNewAxes covers the probeinterval / losswindow grid axes:
// expansion counts, cell naming, config wiring, and seed stability when
// the grid grows along the new axes.
func TestSweepNewAxes(t *testing.T) {
	var got []Config
	var cells []Cell
	spec := SweepSpec{
		Datasets: []Dataset{RONnarrow},
		Days:     sweepDays,
		BaseSeed: 3,
		Axes: []Axis{
			mustAxis(t, "probeinterval", "0", "30s"),
			mustAxis(t, "losswindow", "0", "50"),
		},
		Configure: func(c Cell, cfg *Config) {
			cells = append(cells, c)
			got = append(got, *cfg)
		},
	}
	s, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cells()) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(s.Cells()))
	}
	def := DefaultConfig(RONnarrow, sweepDays)
	for i, c := range cells {
		wantIv := def.ProbeInterval
		if v, ok := cellValue(c, "probeinterval"); !ok {
			t.Fatalf("cell %s has no probeinterval coordinate", c.Name())
		} else if v != "0s" {
			iv, err := time.ParseDuration(string(v))
			if err != nil {
				t.Fatal(err)
			}
			wantIv = iv
		}
		wantLW := def.LossWindow
		if v, _ := cellValue(c, "losswindow"); v != "0" {
			w, err := strconv.Atoi(string(v))
			if err != nil {
				t.Fatal(err)
			}
			wantLW = w
		}
		if got[i].ProbeInterval != wantIv || got[i].LossWindow != wantLW {
			t.Errorf("cell %s: config (interval %v, window %d), want (%v, %d)",
				c.Name(), got[i].ProbeInterval, got[i].LossWindow, wantIv, wantLW)
		}
	}
	names := map[string]bool{}
	for _, c := range s.Cells() {
		names[c.Name()] = true
	}
	for _, want := range []string{
		"ronnarrow-r00", "ronnarrow-w50-r00",
		"ronnarrow-p30s-r00", "ronnarrow-p30s-w50-r00",
	} {
		if !names[want] {
			t.Errorf("expanded grid lacks cell %s (have %v)", want, names)
		}
	}

	// Axis-default cells keep their seeds when the new axes collapse to
	// defaults — the property -resume of a grown grid relies on.
	plain, err := NewSweep(SweepSpec{Datasets: []Dataset{RONnarrow}, Days: sweepDays, BaseSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plainSeed := plain.Cells()[0].Seed
	for _, c := range s.Cells() {
		if len(c.AxisValues()) == 0 && c.Seed != plainSeed {
			t.Errorf("default-axes cell %s changed seed: %d vs %d", c.Name(), c.Seed, plainSeed)
		}
	}

	// Negative axis values are rejected.
	if _, err := NewAxis("probeinterval", []AxisValue{"-1s"}); err == nil {
		t.Error("NewAxis accepted a negative probe interval")
	}
	if _, err := NewAxis("losswindow", []AxisValue{"-1"}); err == nil {
		t.Error("NewAxis accepted a negative loss window")
	}
}
