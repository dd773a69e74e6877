package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/route"
)

func TestAxisCanonicalValues(t *testing.T) {
	cases := []struct {
		axis Axis
		want []AxisValue
	}{
		{HysteresisAxis(0, 0.25), []AxisValue{"0", "0.25"}},
		{mustAxis(t, "probeinterval", "0", "30s", "2m"), []AxisValue{"0s", "30s", "2m0s"}},
		{mustAxis(t, "losswindow", "0", "50"), []AxisValue{"0", "50"}},
		{mustAxis(t, "profile", "", "ls4-es1"), []AxisValue{"", "ls4-es1"}},
		{HysteresisAxis(math.Copysign(0, -1), 1e-7), []AxisValue{"0", "1e-07"}},
		{mustAxis(t, "redundancy", "-0", "0.5"), []AxisValue{"0", "0.5"}},
		{mustAxis(t, "profile", "ls1-es1", "ls04-es1"), []AxisValue{"", "ls4-es1"}},
	}
	for _, c := range cases {
		got := c.axis.Values()
		if len(got) != len(c.want) {
			t.Errorf("%s: values %v, want %v", c.axis.Name(), got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: value %d = %q, want %q", c.axis.Name(), i, got[i], c.want[i])
			}
		}
		// Round trip: the registry factory accepts the canonical values
		// and reproduces them.
		re, err := NewAxis(c.axis.Name(), got)
		if err != nil {
			t.Errorf("%s: registry round trip: %v", c.axis.Name(), err)
			continue
		}
		for i, v := range re.Values() {
			if v != got[i] {
				t.Errorf("%s: registry value %d = %q, want %q", c.axis.Name(), i, v, got[i])
			}
		}
	}
}

func TestAxisLabels(t *testing.T) {
	cases := []struct {
		axis Axis
		v    AxisValue
		want string
	}{
		{HysteresisAxis(0), "0", ""},
		{HysteresisAxis(0.25), "0.25", "-h0.25"},
		{mustAxis(t, "probeinterval", "0"), "0s", ""},
		{mustAxis(t, "probeinterval", "30s"), "30s", "-p30s"},
		{mustAxis(t, "losswindow", "0"), "0", ""},
		{mustAxis(t, "losswindow", "50"), "50", "-w50"},
		{mustAxis(t, "profile", ""), "", ""},
		{mustAxis(t, "profile", "ls4-es2"), "ls4-es2", "-ls4-es2"},
	}
	for _, c := range cases {
		if got := c.axis.Label(c.v); got != c.want {
			t.Errorf("%s.Label(%q) = %q, want %q", c.axis.Name(), c.v, got, c.want)
		}
		// A swept value is canonical: naming and configuring a cell by
		// it costs what the def's own Label and Apply cost, with no
		// re-parse (which re-formats, allocating, per cell and axis).
		var cfg Config
		for _, p := range []struct {
			op        string
			axis, def func()
		}{
			{"Label", func() { c.axis.Label(c.v) }, func() { c.axis.def.Label(c.v) }},
			{"Apply", func() { _ = c.axis.Apply(c.v, &cfg) }, func() { c.axis.def.Apply(c.v, &cfg) }},
		} {
			if got, want := testing.AllocsPerRun(10, p.axis), testing.AllocsPerRun(10, p.def); got != want {
				t.Errorf("%s.%s(%q): %.0f allocs, the def's own %.0f", c.axis.Name(), p.op, c.v, got, want)
			}
		}
	}
}

func TestNewAxisErrors(t *testing.T) {
	if _, err := NewAxis("no-such-axis", []AxisValue{"1"}); err == nil {
		t.Error("NewAxis accepted an unregistered axis name")
	}
	bad := map[string][]AxisValue{
		"hysteresis":    {"-1"},
		"probeinterval": {"-5s"},
		"losswindow":    {"1.5"},
		"profile":       {"lossy"},
		"redundancy":    {"NaN"},
	}
	for name, values := range bad {
		if _, err := NewAxis(name, values); err == nil {
			t.Errorf("NewAxis(%s, %v) accepted invalid values", name, values)
		}
	}
	for name := range bad {
		if _, err := NewAxis(name, nil); err == nil {
			t.Errorf("NewAxis(%s) accepted an empty value list", name)
		}
		if _, err := NewAxis(name, []AxisValue{"0", "0"}); err == nil {
			t.Errorf("NewAxis(%s) accepted duplicate values", name)
		}
	}
	// Non-finite floats are no value of any axis, and -0 is 0.
	for name, values := range map[string][]AxisValue{
		"hysteresis": {"NaN"}, "redundancy": {"+Inf"}, "profile": {"lsNaN-es1"},
	} {
		if _, err := NewAxis(name, values); err == nil {
			t.Errorf("NewAxis(%s, %v) accepted a non-finite value", name, values)
		}
	}
	if _, err := NewAxis("hysteresis", []AxisValue{"0", "-0"}); err == nil {
		t.Error("NewAxis(hysteresis) took -0 for a second value")
	}
	// A typed constructor keeps what it cannot parse, for NewSweep to
	// refuse.
	for _, a := range []Axis{HysteresisAxis(math.NaN()), RedundancyAxis(9), ScenarioAxis("nosuch")} {
		if _, err := NewSweep(SweepSpec{Datasets: []Dataset{RONnarrow}, Days: sweepDays,
			Axes: []Axis{a}}); err == nil {
			t.Errorf("NewSweep accepted %s %v", a.Name(), a.Values())
		}
	}
}

// TestParseLossWindow: the -losswindow parser takes what the selector
// can hold and nothing else, so a window sized like memory is a flag
// error and not a makeslice panic mid-sweep.
func TestParseLossWindow(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"0", 0, true},
		{"1", 1, true},
		{"100", 100, true},
		{"+400", 400, true},
		{strconv.Itoa(route.MaxLossWindow), route.MaxLossWindow, true},
		{strconv.Itoa(route.MaxLossWindow + 1), 0, false},
		{"2000000000", 0, false},
		{"9223372036854775807", 0, false},
		{"9223372036854775808", 0, false},
		{"-1", 0, false},
		{"1.5", 0, false},
		{"1e3", 0, false},
		{"0x10", 0, false},
		{" 7", 0, false},
		{"", 0, false},
	} {
		got, err := parseLossWindow(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseLossWindow(%q) = %d, %v; want %d, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if _, err := NewAxis("losswindow", []AxisValue{"100", "65536"}); err == nil {
		t.Error("NewAxis(losswindow) accepted a window past the cap")
	}
}

// FuzzParseLossWindow: whatever the parser accepts is a window a
// selector carves and a configuration validates.
func FuzzParseLossWindow(f *testing.F) {
	for _, seed := range []string{"0", "100", "65535", "65536", "2000000000", "-1", "+5", "1e3", "٣", "99999999999999999999"} {
		f.Add(seed)
	}
	sel := route.NewSelectorWindow(2, 0)
	f.Fuzz(func(t *testing.T, in string) {
		v, err := parseLossWindow(in)
		if err != nil {
			return
		}
		if v < 0 || v > route.MaxLossWindow {
			t.Fatalf("parseLossWindow(%q) = %d, outside [0, %d]", in, v, route.MaxLossWindow)
		}
		cfg := DefaultConfig(RONnarrow, sweepDays)
		cfg.LossWindow = v
		if err := cfg.Validate(); err != nil {
			t.Fatalf("parseLossWindow(%q) = %d, which Validate rejects: %v", in, v, err)
		}
		sel.Reset(v)
		for i := 0; i < 3; i++ {
			sel.Record(0, 1, true, 0)
		}
		if got := sel.BestLoss(0, 1).Loss; got != 1 {
			t.Fatalf("window %d: three lost probes read as loss %v", v, got)
		}
	})
}

// TestProfileNameReconstruction: a profile value names its LossScale ×
// EdgeShare override of the calibrated profile, so any run can rebuild
// the profile from the name alone.
// FuzzAxisValues: axis values reach the parsers from outside the
// program, through sweep.json and cell snapshots. Whatever value list a
// registered axis accepts round-trips through NewAxis, names distinct
// grid points, applies its unlabeled value exactly as the axis's
// Default, and configures campaigns Validate accepts.
func FuzzAxisValues(f *testing.F) {
	defs := RegisteredAxes()
	for i := range defs {
		for _, list := range []string{
			"-1", "-5s", "1.5", "lossy", "0,0", "", // TestNewAxisErrors
			"0", "1", "100", "+400", "65535", "65536", "1e3", "0x10", " 7", "9223372036854775808", // TestParseLossWindow
			"NaN", "-0", "Inf", "lsNaN-es1", "0,-0", "ls4-es1,ls1-es1", "0,30s", "fullmesh,landmark", "outage", "2,1",
		} {
			f.Add(byte(i), list)
		}
	}
	f.Fuzz(func(t *testing.T, pick byte, list string) {
		def := defs[int(pick)%len(defs)]
		var values []AxisValue
		for _, v := range strings.Split(list, ",") {
			values = append(values, AxisValue(v))
		}
		a, err := NewAxis(def.Name, values)
		if err != nil {
			return
		}
		vals := a.Values()
		if again, err := NewAxis(def.Name, vals); err != nil || !slices.Equal(again.Values(), vals) {
			t.Fatalf("axis %s: %q canonicalized to %q, which rebuilds as %v, %v", def.Name, list, vals, again.Values(), err)
		}
		base := DefaultConfig(RONnarrow, sweepDays)
		dflt := base
		if err := mustAxis(t, def.Name, AxisValue(def.Default)).Apply(AxisValue(def.Default), &dflt); err != nil {
			t.Fatal(err)
		}
		labels := map[string]AxisValue{}
		for i, v := range vals {
			label := a.Label(v)
			if prev, dup := labels[label]; dup || slices.Contains(vals[:i], v) {
				t.Fatalf("axis %s: values %q and %q share label %q (or value)", def.Name, prev, v, label)
			}
			labels[label] = v
			cfg := base
			if err := a.Apply(v, &cfg); err != nil {
				t.Fatalf("axis %s: canonical value %q does not apply: %v", def.Name, v, err)
			}
			if label == "" && !reflect.DeepEqual(cfg, dflt) {
				t.Fatalf("axis %s: unlabeled value %q configures %+v, the default %q %+v", def.Name, v, cfg, def.Default, dflt)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("axis %s: value %q configures a campaign Validate rejects: %v", def.Name, v, err)
			}
		}
	})
}

func TestProfileNameReconstruction(t *testing.T) {
	cfg := DefaultConfig(RONnarrow, sweepDays)
	profile := mustAxis(t, "profile", "", "ls4-es0.5")
	if err := profile.Apply("ls4-es0.5", &cfg); err != nil {
		t.Fatal(err)
	}
	if p := cfg.Profile; p == nil || p.LossScale != 4 || p.EdgeShare != 0.5 {
		t.Errorf("reconstructed profile = %+v", p)
	}
	if err := profile.Apply("", &cfg); err != nil || cfg.Profile != nil {
		t.Errorf("the default profile value left %+v, %v", cfg.Profile, err)
	}
	for _, bad := range []string{"lossy", "ls4", "ls0-es1", "ls4-es-2", "es1-ls4", "lsNaN-es1", "ls+Inf-es1", "ls4-es1x"} {
		if _, err := parseProfileName(bad); err == nil {
			t.Errorf("parseProfileName(%q) accepted", bad)
		}
	}
	grid, err := ProfileGrid([]float64{1, 4}, []float64{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := grid.Values(), []AxisValue{"", "ls1-es0.5", "ls4-es1", "ls4-es0.5"}; !slices.Equal(got, want) {
		t.Errorf("ProfileGrid values = %v, want %v", got, want)
	}
}

// TestApplyAxisValue: a value applied through the registry's axis
// configures its field, and an axis no package registers is refused
// when the axis is built, naming the registry.
func TestApplyAxisValue(t *testing.T) {
	cfg := DefaultConfig(RONnarrow, sweepDays)
	if err := mustAxis(t, "losswindow", "25").Apply("25", &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.LossWindow != 25 {
		t.Errorf("losswindow apply left window %d", cfg.LossWindow)
	}
	if _, err := NewAxis("warpfactor", []AxisValue{"9"}); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Errorf("NewAxis of an unregistered axis: %v, want a not-registered error", err)
	}
}

// mustAxis builds a registered axis, failing the test on an error.
func mustAxis(t testing.TB, name string, values ...AxisValue) Axis {
	t.Helper()
	a, err := NewAxis(name, values)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// gapscale is a custom test axis defined outside the standard set: it
// scales the §4.1 measurement-probe gap by 1 or 2. It exists to prove
// the engine treats registered custom axes exactly like built-in ones.
func init() {
	RegisterAxis(AxisDef{
		Name:    "gapscale",
		Usage:   "test: measurement-gap scale factors",
		Default: "1",
		Parse: func(s string) (AxisValue, error) {
			if s != "1" && s != "2" {
				return "", fmt.Errorf("gap scale %q is not 1 or 2", s)
			}
			return AxisValue(s), nil
		},
		Label: prefixLabel("-g", "1"),
		Apply: func(v AxisValue, cfg *Config) {
			if v == "2" {
				cfg.MeasureGapMin *= 2
				cfg.MeasureGapMax *= 2
			}
		},
	})
}

// TestCustomAxisPinnedToDefaultIsDropped: a custom axis whose value
// list is its single default must expand to the identical grid — names
// AND seeds — as a spec that never mentions it, so "pinned to default"
// and "unmentioned" are interchangeable when resuming or merging.
func TestCustomAxisPinnedToDefaultIsDropped(t *testing.T) {
	plain, err := NewSweep(SweepSpec{Datasets: []Dataset{RONnarrow}, Days: sweepDays, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := NewSweep(SweepSpec{Datasets: []Dataset{RONnarrow}, Days: sweepDays, BaseSeed: 5,
		Axes: []Axis{mustAxis(t, "gapscale", "1")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pinned.Axes()) != len(plain.Axes()) {
		t.Fatalf("pinned-default custom axis survived normalization: %d axes", len(pinned.Axes()))
	}
	pc, gc := plain.Cells(), pinned.Cells()
	if len(pc) != len(gc) || pc[0].Name() != gc[0].Name() || pc[0].Seed != gc[0].Seed {
		t.Errorf("pinned-default grid differs from unmentioned: %s/%d vs %s/%d",
			gc[0].Name(), gc[0].Seed, pc[0].Name(), pc[0].Seed)
	}
}

func TestCustomAxisExpansion(t *testing.T) {
	spec := SweepSpec{
		Datasets: []Dataset{RONnarrow},
		Days:     sweepDays,
		BaseSeed: 5,
		Axes: []Axis{
			// Deliberately out of canonical order: normalization must
			// pin the standard axis ahead of the custom one regardless.
			mustAxis(t, "gapscale", "1", "2"),
			HysteresisAxis(0, 0.25),
		},
	}
	s, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cells()) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(s.Cells()))
	}
	axes := s.Axes()
	if len(axes) != 5 || axes[len(axes)-1].Name() != "gapscale" {
		names := make([]string, len(axes))
		for i, a := range axes {
			names[i] = a.Name()
		}
		t.Fatalf("normalized axes = %v, want standard four then gapscale", names)
	}
	names := map[string]bool{}
	for _, c := range s.Cells() {
		names[c.Name()] = true
	}
	for _, want := range []string{
		"ronnarrow-r00", "ronnarrow-g2-r00",
		"ronnarrow-h0.25-r00", "ronnarrow-h0.25-g2-r00",
	} {
		if !names[want] {
			t.Errorf("custom-axis grid lacks cell %s (have %v)", want, names)
		}
	}
	// The custom coordinate reaches the cell's generic identity.
	for _, c := range s.Cells() {
		v, ok := cellValue(c, "gapscale")
		if !ok {
			t.Fatalf("cell %s has no gapscale coordinate", c.Name())
		}
		if v == "2" && c.AxisValues()["gapscale"] != "2" {
			t.Errorf("cell %s: AxisValues() lacks gapscale", c.Name())
		}
	}
}

func TestCustomAxisSnapshotRoundTrip(t *testing.T) {
	res := runSweep(t, SweepSpec{
		Datasets: []Dataset{RONnarrow},
		Days:     sweepDays,
		BaseSeed: 13,
		Axes:     []Axis{mustAxis(t, "gapscale", "2")},
	})
	c := res.Cells[0]
	dir := t.TempDir()
	path := CellSnapshotPath(dir, c.Cell.Name())
	if _, err := NewCellSnapshot(c.Cell, c.Res).WriteFileBuf(path, nil); err != nil {
		t.Fatal(err)
	}
	if snap := readSnapshot(t, path); snap.Axes["gapscale"] != "2" {
		t.Errorf("snapshot axes = %v, want gapscale=2", snap.Axes)
	}
	// The grid re-expanded from the manifest re-applies the custom axis
	// through the registry, and the snapshot reads back under it.
	s, err := res.Manifest(nil, nil).Sweep(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := s.ReadCell(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Report(), c.Res.Report(); got != want {
		t.Errorf("restored custom-axis report differs:\n%s\nwant:\n%s", got, want)
	}
	def := DefaultConfig(RONnarrow, sweepDays)
	if restored.Config.MeasureGapMin != 2*def.MeasureGapMin {
		t.Errorf("restore did not re-apply the custom axis: gap %v", restored.Config.MeasureGapMin)
	}
}
