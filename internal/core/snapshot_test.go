package core

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCell runs one short campaign and returns its cell and result, the
// raw material for snapshot tests.
func runCell(t *testing.T) (Cell, *Result) {
	t.Helper()
	s, err := NewSweep(SweepSpec{
		Datasets: []Dataset{RONnarrow},
		Days:     sweepDays,
		BaseSeed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Cells[0].Cell, res.Cells[0].Res
}

func TestCellSnapshotRoundTrip(t *testing.T) {
	cell, res := runCell(t)
	path := CellSnapshotPath(t.TempDir(), cell.Name())
	if _, err := NewCellSnapshot(cell, res).WriteFileBuf(path, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadCellSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Name != cell.Name() || snap.Seed != cell.Seed ||
		snap.Dataset != "RONnarrow" || snap.Hosts != res.Testbed.N() {
		t.Errorf("snapshot meta = %+v", snap)
	}
	if snap.RONProbes != res.RONProbes || snap.MeasureProbes != res.MeasureProbes ||
		snap.RouteChanges != res.RouteChanges {
		t.Errorf("snapshot counters (%d,%d,%d) != result (%d,%d,%d)",
			snap.RONProbes, snap.MeasureProbes, snap.RouteChanges,
			res.RONProbes, res.MeasureProbes, res.RouteChanges)
	}

	restored, err := snap.Restore(res.Config)
	if err != nil {
		t.Fatal(err)
	}
	// The restored result renders the same report bytes.
	if got, want := restored.Report(), res.Report(); got != want {
		t.Errorf("restored report differs:\n%s\nwant:\n%s", got, want)
	}
	// RestoreStandalone (no external config) must agree too.
	alone, err := snap.RestoreStandalone()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := alone.Report(), res.Report(); got != want {
		t.Errorf("standalone-restored report differs:\n%s\nwant:\n%s", got, want)
	}
}

func TestCellSnapshotDetectsCorruption(t *testing.T) {
	cell, res := runCell(t)
	dir := t.TempDir()
	path := CellSnapshotPath(dir, cell.Name())
	if _, err := NewCellSnapshot(cell, res).WriteFileBuf(path, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"bit flip in metadata":   flipByte(data, len(snapshotMagic)+8),
		"bit flip in aggregator": flipByte(data, len(data)/2),
		"bit flip in checksum":   flipByte(data, len(data)-2),
		"truncated":              data[:len(data)-10],
		"empty":                  {},
		"not a snapshot":         []byte("definitely not a snapshot file"),
	}
	for name, bad := range cases {
		p := filepath.Join(dir, "bad.snap")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCellSnapshot(p); err == nil {
			t.Errorf("%s: ReadCellSnapshot accepted corrupted file", name)
		}
	}
	if _, err := ReadCellSnapshot(filepath.Join(dir, "absent.snap")); err == nil {
		t.Error("ReadCellSnapshot succeeded on a missing file")
	}

	// The original file still reads fine (corruption tests wrote copies).
	if _, err := ReadCellSnapshot(path); err != nil {
		t.Errorf("pristine snapshot failed to read: %v", err)
	}
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x40
	return out
}

// TestCellSnapshotNoPartialFiles: WriteFile is atomic — after a write,
// the cell directory holds exactly the snapshot, no temp debris a
// killed process would leave behind on the happy path.
func TestCellSnapshotNoPartialFiles(t *testing.T) {
	cell, res := runCell(t)
	dir := t.TempDir()
	path := CellSnapshotPath(dir, cell.Name())
	if _, err := NewCellSnapshot(cell, res).WriteFileBuf(path, nil); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != SnapshotFileName {
			t.Errorf("unexpected file %s next to snapshot", e.Name())
		}
	}

	// Debris from a kill mid-write (a stale .tmp file) is swept by the
	// next write, so directory trees stay rsync/diff-clean.
	stale := path + ".tmp12345"
	if err := os.WriteFile(stale, []byte("debris"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCellSnapshot(cell, res).WriteFileBuf(path, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); err == nil {
		t.Error("stale .tmp debris survived a rewrite")
	}
	if _, err := ReadCellSnapshot(path); err != nil {
		t.Errorf("snapshot unreadable after debris sweep: %v", err)
	}
}

func TestReadManifestCellSnapshot(t *testing.T) {
	cell, res := runCell(t)
	dir := t.TempDir()
	if _, err := NewCellSnapshot(cell, res).WriteFileBuf(CellSnapshotPath(dir, cell.Name()), nil); err != nil {
		t.Fatal(err)
	}
	mc := ManifestCell{Name: cell.Name(), Seed: cell.Seed, Snapshot: CellSnapshotRelPath(cell.Name())}
	if _, err := ReadManifestCellSnapshot(dir, mc); err != nil {
		t.Errorf("matching manifest cell rejected: %v", err)
	}
	// A foreign-grid snapshot (wrong seed) is a mismatch, not data.
	bad := mc
	bad.Seed++
	if _, err := ReadManifestCellSnapshot(dir, bad); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("seed mismatch error = %v, want ErrSnapshotMismatch", err)
	}
	// Absence — of the recorded file, or of any record — surfaces as
	// fs.ErrNotExist so callers can tell it apart.
	for _, gone := range []ManifestCell{
		{Name: "no-such-cell", Seed: 1, Snapshot: CellSnapshotRelPath("no-such-cell")},
		{Name: cell.Name(), Seed: cell.Seed},
	} {
		if _, err := ReadManifestCellSnapshot(dir, gone); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("missing snapshot %+v error = %v, want fs.ErrNotExist", gone, err)
		}
	}
}

func TestCellSnapshotRestoreRejectsWrongGrid(t *testing.T) {
	cell, res := runCell(t)
	path := CellSnapshotPath(t.TempDir(), cell.Name())
	if _, err := NewCellSnapshot(cell, res).WriteFileBuf(path, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadCellSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*Config){
		"seed":    func(c *Config) { c.Seed++ },
		"days":    func(c *Config) { c.Days *= 2 },
		"dataset": func(c *Config) { c.Dataset = RON2003 },
	} {
		cfg := res.Config
		mutate(&cfg)
		if _, err := snap.Restore(cfg); err == nil {
			t.Errorf("Restore accepted a config with a different %s", name)
		} else if !strings.Contains(err.Error(), name) {
			t.Errorf("%s mismatch error does not name the field: %v", name, err)
		}
	}
}
