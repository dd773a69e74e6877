package core

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cellSpec is the one-cell grid runCell runs.
func cellSpec() SweepSpec {
	return SweepSpec{Datasets: []Dataset{RONnarrow}, Days: sweepDays, BaseSeed: 11}
}

// runCell runs one short campaign and returns its cell and result, the
// raw material for snapshot tests.
func runCell(t *testing.T) (Cell, *Result) {
	t.Helper()
	res := runSweep(t, cellSpec())
	return res.Cells[0].Cell, res.Cells[0].Res
}

// readSnapshot parses the snapshot file at path, failing the test if it
// is absent or does not parse.
func readSnapshot(t *testing.T, path string) *CellSnapshot {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ParseCellSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestCellSnapshotRoundTrip(t *testing.T) {
	cell, res := runCell(t)
	path := CellSnapshotPath(t.TempDir(), cell.Name())
	if _, err := NewCellSnapshot(cell, res).WriteFileBuf(path, nil); err != nil {
		t.Fatal(err)
	}
	snap := readSnapshot(t, path)
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
		if _, err := ParseCellSnapshot(bad); err == nil {
			t.Errorf("%s: ParseCellSnapshot accepted a corrupted file", name)
		}
	}
	// The original bytes still parse (the cases were copies).
	if _, err := ParseCellSnapshot(data); err != nil {
		t.Errorf("pristine snapshot failed to parse: %v", err)
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
	readSnapshot(t, path)
}

// TestSweepReadCell: the one reader of snapshot files admits a cell's
// own snapshot, reports another grid's as ErrSnapshotMismatch — another
// base seed, or another campaign length under the same seeds — and
// tells absence (fs.ErrNotExist) and corruption apart from both.
func TestSweepReadCell(t *testing.T) {
	cell, res := runCell(t)
	dir := t.TempDir()
	path := CellSnapshotPath(dir, cell.Name())
	if _, err := NewCellSnapshot(cell, res).WriteFileBuf(path, nil); err != nil {
		t.Fatal(err)
	}
	sweep := func(mutate func(*SweepSpec)) *Sweep {
		spec := cellSpec()
		mutate(&spec)
		s, err := NewSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	own := sweep(func(*SweepSpec) {})
	got, err := own.ReadCell(0, dir)
	if err != nil {
		t.Fatalf("the cell's own snapshot rejected: %v", err)
	}
	if got.Report() != res.Report() {
		t.Errorf("read-back report differs:\n%s\nwant:\n%s", got.Report(), res.Report())
	}
	for name, mutate := range map[string]func(*SweepSpec){
		"seed": func(s *SweepSpec) { s.BaseSeed++ },
		"days": func(s *SweepSpec) { s.Days *= 2 },
	} {
		if _, err := sweep(mutate).ReadCell(0, dir); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("a snapshot from a grid with another %s: error %v, want ErrSnapshotMismatch", name, err)
		} else if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s mismatch error does not name the field and the file: %v", name, err)
		}
	}
	if _, err := own.ReadCell(0, t.TempDir()); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("absent snapshot: error %v, want fs.ErrNotExist", err)
	}
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := own.ReadCell(0, dir); err == nil || errors.Is(err, ErrSnapshotMismatch) || errors.Is(err, fs.ErrNotExist) {
		t.Errorf("corrupt snapshot: error %v, want a parse error", err)
	}
}

func TestCellSnapshotRestoreRejectsWrongGrid(t *testing.T) {
	cell, res := runCell(t)
	path := CellSnapshotPath(t.TempDir(), cell.Name())
	if _, err := NewCellSnapshot(cell, res).WriteFileBuf(path, nil); err != nil {
		t.Fatal(err)
	}
	snap := readSnapshot(t, path)

	for name, mutate := range map[string]func(*Config){
		"seed":    func(c *Config) { c.Seed++ },
		"days":    func(c *Config) { c.Days *= 2 },
		"dataset": func(c *Config) { c.Dataset = RON2003 },
	} {
		cfg := res.Config
		mutate(&cfg)
		if _, err := snap.Restore(cfg); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("Restore of a config with a different %s: error %v, want ErrSnapshotMismatch", name, err)
		} else if !strings.Contains(err.Error(), name) {
			t.Errorf("%s mismatch error does not name the field: %v", name, err)
		}
	}
}
