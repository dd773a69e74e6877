package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// ManifestName is the filename of a sweep manifest inside its output
// directory.
const ManifestName = "sweep.json"

// ManifestVersion is the one sweep manifest version: Manifest writes it
// and ReadManifest accepts nothing else.
const ManifestVersion = 3

// SweepManifest records what a sweep wrote to its output directory, so
// post-processing tools (cmd/ronsim -merge-only, cmd/ronreport) can
// find and combine the per-cell artifacts — and enough of the spec
// (datasets, replicas, and every axis with its full value list) that
// SweepSpec can re-derive it, which is what lets a coordinator ship a
// grid to workers as pure data. A sharded run writes the manifest for
// the FULL grid — including cells it skipped — so any shard's manifest
// describes the whole sweep and merge-only mode can report which grid
// points are still missing.
type SweepManifest struct {
	Version int `json:"version"`
	// BaseSeed and Days echo the sweep spec, for provenance and
	// reconstruction.
	BaseSeed uint64  `json:"baseSeed,omitempty"`
	Days     float64 `json:"days,omitempty"`
	// Replicas, Datasets, and Axes record the normalized grid
	// dimensions: dataset order, every grid axis in grid order with its
	// complete canonical value list.
	Replicas int            `json:"replicas,omitempty"`
	Datasets []string       `json:"datasets,omitempty"`
	Axes     []ManifestAxis `json:"axes,omitempty"`
	// Workload records the sweep's base application-traffic
	// configuration, applied to every cell before the grid axes refine
	// it; nil for workload-free sweeps. Without it a manifest-derived
	// spec would silently drop the workload base and a fleet would
	// compute mislabeled cells.
	Workload *WorkloadConfig `json:"workload,omitempty"`
	Groups   []ManifestGroup `json:"groups"`
}

// ManifestAxis serializes one grid axis: its registry name and its
// canonical value list in grid order.
type ManifestAxis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// ManifestGroup describes one merged grid point.
type ManifestGroup struct {
	Name    string   `json:"name"`
	Dataset string   `json:"dataset"`
	Hosts   int      `json:"hosts"`
	Methods []string `json:"methods"`
	// Axes are the grid point's non-default axis coordinates by axis
	// name (canonical value encoding).
	Axes  map[string]string `json:"axes,omitempty"`
	Cells []ManifestCell    `json:"cells"`
}

// CellCoords describes the group's cell at replica position i in
// operator terms: the dataset, every non-default axis coordinate by
// name, and the replica ordinal. Missing-cell reports use it so a fleet
// operator can re-dispatch by hand from the grid's coordinates instead
// of reverse-engineering an encoded cell name.
func (g *ManifestGroup) CellCoords(i int) string {
	var b strings.Builder
	b.WriteString("dataset=")
	b.WriteString(g.Dataset)
	for _, name := range sortedAxisNames(g.Axes) {
		b.WriteString(" ")
		b.WriteString(name)
		b.WriteString("=")
		b.WriteString(g.Axes[name])
	}
	fmt.Fprintf(&b, " replica=%d", i)
	return b.String()
}

// ManifestCell describes one replicate campaign.
type ManifestCell struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	// Trace is the cell's probe-trace file, relative to the manifest's
	// directory; empty when the sweep ran without tracing.
	Trace string `json:"trace,omitempty"`
	// Snapshot is the cell's persisted-state file, relative to the
	// manifest's directory (CellSnapshotRelPath, where Sweep.ReadCell
	// reads it); empty when the sweep ran without an output directory. The file exists only for cells that
	// have actually completed on some machine — under sharding, each
	// shard records the same canonical path and fills in its own cells.
	Snapshot string `json:"snapshot,omitempty"`
}

// Manifest builds the manifest for a finished sweep, covering the full
// grid (skipped cells included). tracePath and snapPath, when non-nil,
// map a cell to its trace and snapshot file paths relative to the
// output directory (return "" for cells without that artifact).
func (r *SweepResult) Manifest(tracePath, snapPath func(Cell) string) *SweepManifest {
	return buildManifest(&r.Spec, r.Replicas, r.Datasets, r.Axes, len(r.Groups),
		func(gi int) (int, []string, []Cell) {
			g := &r.Groups[gi]
			cells := make([]Cell, len(g.Cells))
			for i, c := range g.Cells {
				cells[i] = c.Cell
			}
			return g.Hosts, g.Methods, cells
		}, tracePath, snapPath)
}

// Manifest records the sweep's full expanded grid before (or without)
// running it — identical in shape to the manifest SweepResult.Manifest
// writes after a run, because both derive from the same expansion. It
// is what a coordinator serves to its workers: expanding the returned
// manifest's SweepSpec on any machine reproduces the exact cells,
// names, and coordinate-derived seeds. tracePath and snapPath have the
// same contract as in SweepResult.Manifest.
func (s *Sweep) Manifest(tracePath, snapPath func(Cell) string) *SweepManifest {
	return buildManifest(&s.spec, s.replicas, s.datasets, s.axes, len(s.groups),
		func(gi int) (int, []string, []Cell) {
			idxs := s.groups[gi]
			cells := make([]Cell, len(idxs))
			for i, ci := range idxs {
				cells[i] = s.cells[ci]
			}
			hosts, methods := s.groupShape(gi)
			return hosts, methods, cells
		}, tracePath, snapPath)
}

// buildManifest assembles a manifest from a normalized grid. group
// returns grid point gi's testbed size, method names and cells in
// replica order; its name, dataset and axis coordinates are its first
// cell's.
func buildManifest(spec *SweepSpec, replicas int, datasets []Dataset, axes []Axis, groups int,
	group func(gi int) (hosts int, methods []string, cells []Cell),
	tracePath, snapPath func(Cell) string) *SweepManifest {
	m := &SweepManifest{
		Version:  ManifestVersion,
		BaseSeed: spec.BaseSeed,
		Days:     spec.Days,
		Replicas: replicas,
		Workload: spec.Workload,
	}
	for _, d := range datasets {
		m.Datasets = append(m.Datasets, d.String())
	}
	for _, a := range axes {
		ma := ManifestAxis{Name: a.Name()}
		for _, v := range a.Values() {
			ma.Values = append(ma.Values, string(v))
		}
		m.Axes = append(m.Axes, ma)
	}
	for gi := 0; gi < groups; gi++ {
		hosts, methods, cells := group(gi)
		first := cells[0]
		mg := ManifestGroup{
			Name:    first.GroupName(),
			Dataset: first.Dataset.String(),
			Hosts:   hosts,
			Methods: methods,
			Axes:    first.AxisValues(),
		}
		for _, c := range cells {
			mc := ManifestCell{Name: c.Name(), Seed: c.Seed}
			if tracePath != nil {
				mc.Trace = tracePath(c)
			}
			if snapPath != nil {
				mc.Snapshot = snapPath(c)
			}
			mg.Cells = append(mg.Cells, mc)
		}
		m.Groups = append(m.Groups, mg)
	}
	return m
}

// Write stores the manifest as ManifestName inside dir.
func (m *SweepManifest) Write(dir string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), append(data, '\n'), 0o644)
}

// ReadManifest loads ManifestName from dir. A manifest of any version
// but ManifestVersion is refused by number.
func ReadManifest(dir string) (*SweepManifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var m SweepManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("core: parsing %s: %w", ManifestName, err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("core: unsupported sweep manifest version %d (want %d)", m.Version, ManifestVersion)
	}
	return &m, nil
}

// SweepSpec reconstructs the expandable spec the manifest records:
// datasets, grid axes (rebuilt through the axis registry), replicas,
// base seed, and campaign length. Expanding the returned spec
// reproduces the manifest's exact cells, names, and seeds — the
// property that turns a manifest into a self-contained unit of work a
// coordinator can hand to any machine. Axes not registered in the
// running binary are a clear error: silently dropping one would
// mislabel every cell.
func (m *SweepManifest) SweepSpec() (SweepSpec, error) {
	spec := SweepSpec{
		BaseSeed: m.BaseSeed,
		Days:     m.Days,
		Replicas: m.Replicas,
		Workload: m.Workload,
	}
	for _, name := range m.Datasets {
		d, err := ParseDataset(name)
		if err != nil {
			return SweepSpec{}, fmt.Errorf("core: manifest dataset: %w", err)
		}
		spec.Datasets = append(spec.Datasets, d)
	}
	for _, ma := range m.Axes {
		values := make([]AxisValue, len(ma.Values))
		for i, v := range ma.Values {
			values[i] = AxisValue(v)
		}
		a, err := NewAxis(ma.Name, values)
		if err != nil {
			return SweepSpec{}, fmt.Errorf("core: manifest axis %q: %w", ma.Name, err)
		}
		spec.Axes = append(spec.Axes, a)
	}
	return spec, nil
}

// Sweep re-expands the manifest's grid (SweepSpec, then NewSweep):
// the cells and Configs of the run that wrote it, against which the
// offline tools admit that run's snapshots (Sweep.Start's reload, or
// Sweep.ReadCell), exactly as the run itself would. It also checks
// that the expansion lists the manifest's groups in order — the same
// names, testbed sizes and method sets, and the same cells with the
// same seeds — so the manifest's group g and cell k (with its trace
// path) are the expansion's group g, replica k.
// warnf and filter, either may be nil, become the spec's Warnf and
// Filter: the two hooks an offline pass that reads the directory
// through Start (a run that dispatches nothing) gives the run.
func (m *SweepManifest) Sweep(warnf func(format string, args ...any), filter func(Cell) bool) (*Sweep, error) {
	spec, err := m.SweepSpec()
	if err != nil {
		return nil, err
	}
	spec.Warnf, spec.Filter = warnf, filter
	s, err := NewSweep(spec)
	if err != nil {
		return nil, err
	}
	if len(m.Groups) != len(s.groups) {
		return nil, fmt.Errorf("core: manifest lists %d groups, its grid has %d", len(m.Groups), len(s.groups))
	}
	for g, idxs := range s.groups {
		mg := &m.Groups[g]
		hosts, methods := s.groupShape(g)
		var what string
		switch first := s.cells[idxs[0]]; {
		case mg.Name != first.GroupName():
			what = fmt.Sprintf("grid has %s in its place", first.GroupName())
		case mg.Hosts != hosts:
			what = fmt.Sprintf("hosts %d, grid has %d", mg.Hosts, hosts)
		case !slices.Equal(mg.Methods, methods):
			what = fmt.Sprintf("methods %q, grid has %q", mg.Methods, methods)
		case len(mg.Cells) != len(idxs):
			what = fmt.Sprintf("%d cells, grid has %d", len(mg.Cells), len(idxs))
		}
		for k := 0; what == "" && k < len(idxs); k++ {
			if c := s.cells[idxs[k]]; mg.Cells[k].Name != c.Name() || mg.Cells[k].Seed != c.Seed {
				what = fmt.Sprintf("cell %s seed %d, grid has %s seed %d",
					mg.Cells[k].Name, mg.Cells[k].Seed, c.Name(), c.Seed)
			}
		}
		if what != "" {
			return nil, fmt.Errorf("core: manifest group %s does not match its grid: %s", mg.Name, what)
		}
	}
	return s, nil
}
