package core

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// fleetTestSpec is the small two-axis grid the fleet-support tests
// expand: 2 hysteresis points × 2 replicas.
func fleetTestSpec() SweepSpec {
	return SweepSpec{
		Datasets: []Dataset{RONnarrow},
		Days:     sweepDays,
		BaseSeed: 7,
		Replicas: 2,
		Axes:     []Axis{HysteresisAxis(0, 0.25)},
	}
}

// TestSweepManifestMatchesResultManifest: the pre-run manifest a
// coordinator serves must be identical to the post-run manifest the
// sweep engine writes — both describe the same expansion, so a worker
// deriving the grid from either sees the same cells and seeds.
func TestSweepManifestMatchesResultManifest(t *testing.T) {
	s, err := NewSweep(fleetTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	pre := s.Manifest(nil, nil)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	post := res.Manifest(nil, nil)
	if !reflect.DeepEqual(pre, post) {
		t.Errorf("pre-run manifest differs from post-run manifest:\npre  %+v\npost %+v", pre, post)
	}

	// Round trip: the manifest's spec re-expands to the same grid.
	spec, err := pre.SweepSpec()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, got := s.Cells(), s2.Cells()
	if len(want) != len(got) {
		t.Fatalf("re-expanded grid has %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Name() != got[i].Name() || want[i].Seed != got[i].Seed {
			t.Errorf("cell %d: re-expanded %s/%d, want %s/%d",
				i, got[i].Name(), got[i].Seed, want[i].Name(), want[i].Seed)
		}
	}
}

// TestSweepAccessors: the coordinator-facing accessors expose the same
// expansion the engine runs.
func TestSweepAccessors(t *testing.T) {
	s, err := NewSweep(fleetTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	if s.replicas != 2 {
		t.Errorf("replicas = %d, want 2", s.replicas)
	}
	if s.NumGroups() != 2 {
		t.Errorf("NumGroups() = %d, want 2", s.NumGroups())
	}
	cells := s.Cells()
	seen := 0
	for g := 0; g < s.NumGroups(); g++ {
		idxs := s.GroupCells(g)
		if len(idxs) != 2 {
			t.Fatalf("group %d has %d cells, want 2", g, len(idxs))
		}
		for r, i := range idxs {
			seen++
			if cells[i].Group != g || cells[i].Replica != r {
				t.Errorf("cell %d: group/replica = %d/%d, want %d/%d",
					i, cells[i].Group, cells[i].Replica, g, r)
			}
			cfg := s.Config(i)
			if cfg.Seed != cells[i].Seed {
				t.Errorf("Config(%d).Seed = %d, want %d", i, cfg.Seed, cells[i].Seed)
			}
		}
	}
	if seen != len(cells) {
		t.Errorf("groups cover %d cells, grid has %d", seen, len(cells))
	}
}

// TestManifestWorkloadRoundTrip: the base workload configuration rides
// the manifest, so a worker expanding a manifest-derived spec runs the
// same application traffic the coordinator's flags asked for.
func TestManifestWorkloadRoundTrip(t *testing.T) {
	spec := fleetTestSpec()
	w := DefaultWorkloadConfig()
	w.Streams = 2
	w.FrameInterval = 2 * time.Second
	spec.Workload = &w
	s, err := NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.Manifest(nil, nil).Write(dir); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Workload == nil || *m.Workload != w {
		t.Fatalf("manifest workload = %+v, want %+v", m.Workload, w)
	}
	rt, err := m.SweepSpec()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Workload == nil || *rt.Workload != w {
		t.Errorf("round-tripped spec workload = %+v, want %+v", rt.Workload, w)
	}

	// Workload-free manifests keep a nil workload on both sides.
	dir2 := t.TempDir()
	s2, err := NewSweep(fleetTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Manifest(nil, nil).Write(dir2); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadManifest(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Workload != nil {
		t.Errorf("workload-free manifest carries workload %+v", m2.Workload)
	}
}

// TestManifestCellCoords: missing-cell reports must give operators the
// grid coordinates, not just an encoded name.
func TestManifestCellCoords(t *testing.T) {
	s, err := NewSweep(fleetTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	m := s.Manifest(nil, nil)
	var defGroup, hystGroup *ManifestGroup
	for gi := range m.Groups {
		switch m.Groups[gi].Name {
		case "ronnarrow":
			defGroup = &m.Groups[gi]
		case "ronnarrow-h0.25":
			hystGroup = &m.Groups[gi]
		}
	}
	if defGroup == nil || hystGroup == nil {
		t.Fatalf("expected groups missing; manifest has %+v", m.Groups)
	}
	if got := defGroup.CellCoords(1); got != "dataset=RONnarrow replica=1" {
		t.Errorf("default group coords = %q", got)
	}
	got := hystGroup.CellCoords(0)
	if !strings.Contains(got, "hysteresis=0.25") || !strings.Contains(got, "replica=0") {
		t.Errorf("hysteresis group coords = %q", got)
	}
}

// TestParseCellSnapshot: the in-memory container parse — what the
// coordinator runs on wire payloads — accepts exactly the bytes
// WriteFile persists and rejects corruption.
func TestParseCellSnapshot(t *testing.T) {
	cell, res := runCell(t)
	buf, err := NewCellSnapshot(cell, res).AppendContainer(nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ParseCellSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Name != cell.Name() || snap.Seed != cell.Seed {
		t.Errorf("parsed identity %s/%d, want %s/%d",
			snap.Name, snap.Seed, cell.Name(), cell.Seed)
	}
	restored, err := snap.Restore(res.Config)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Report(), res.Report(); got != want {
		t.Errorf("parsed snapshot renders a different report")
	}

	// A flipped byte anywhere fails the CRC; a truncated payload fails
	// structurally. Both must error, never return bad statistics.
	flip := append([]byte(nil), buf...)
	flip[len(flip)/2] ^= 0x40
	if _, err := ParseCellSnapshot(flip); err == nil {
		t.Error("ParseCellSnapshot accepted a corrupted payload")
	}
	if _, err := ParseCellSnapshot(buf[:len(buf)/3]); err == nil {
		t.Error("ParseCellSnapshot accepted a truncated payload")
	}
	if _, err := ParseCellSnapshot(nil); err == nil {
		t.Error("ParseCellSnapshot accepted an empty payload")
	}
}
