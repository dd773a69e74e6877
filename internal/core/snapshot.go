package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

// Cell snapshots persist a finished cell campaign — its identity, run
// counters, and full aggregator state — so sweeps can resume after a
// kill, extend onto a grown grid, and merge cells computed on other
// machines without rerunning them. The on-disk container is
//
//	magic "RONSNAP1" (8 bytes)
//	u32 little-endian length of the JSON metadata
//	JSON metadata (CellSnapshot's exported fields)
//	u32 little-endian length of the aggregator payload
//	aggregator payload (analysis.Aggregator AppendBinary)
//	u32 little-endian IEEE CRC-32 of all preceding bytes
//
// The checksum plus an atomic write-then-rename makes a snapshot either
// absent or trustworthy: a campaign killed mid-write never leaves a
// half-written file under the snapshot's name.

// SnapshotVersion is the one cell snapshot format version, recorded in
// the metadata; a snapshot of any other version is refused by number.
const SnapshotVersion = 2

// SnapshotFileName is the snapshot file inside a cell's output
// directory.
const SnapshotFileName = "cell.snap"

// CellsDirName and MergedDirName are the sweep output subdirectories
// holding per-cell and per-grid-point artifacts.
const (
	CellsDirName  = "cells"
	MergedDirName = "merged"
)

// snapshotMagic identifies cell snapshot files; the JSON metadata
// carries the format version.
var snapshotMagic = []byte("RONSNAP1")

// CellSnapshotRelPath returns a cell snapshot's canonical path relative
// to its sweep output directory.
func CellSnapshotRelPath(cellName string) string {
	return filepath.Join(CellsDirName, cellName, SnapshotFileName)
}

// CellSnapshotPath returns a cell snapshot's canonical absolute-or-
// relative path under a sweep output directory.
func CellSnapshotPath(outDir, cellName string) string {
	return filepath.Join(outDir, CellSnapshotRelPath(cellName))
}

// CellSnapshot is the persisted state of one finished cell campaign.
// The exported fields form the JSON metadata; the aggregator rides in a
// binary section (see Aggregator).
type CellSnapshot struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	Seed    uint64 `json:"seed"`
	Dataset string `json:"dataset"`
	// Days is the cell's virtual campaign length.
	Days float64 `json:"days"`
	// Axes holds the cell's non-default axis coordinates by axis name,
	// in each axis's canonical value encoding — the generic identity
	// that lets any registered axis (custom ones included) round-trip
	// through a snapshot. A profile coordinate is the variant's name
	// only: the profile parameters are not persisted, since restoring a
	// snapshot never re-runs the substrate.
	Axes    map[string]string `json:"axes,omitempty"`
	Hosts   int               `json:"hosts"`
	Methods []string          `json:"methods"`

	RONProbes     int64 `json:"ronProbes"`
	MeasureProbes int64 `json:"measureProbes"`
	RouteChanges  int64 `json:"routeChanges"`

	agg *analysis.Aggregator
}

// NewCellSnapshot captures a finished cell's result. The result's
// aggregator is referenced, not copied; it is flushed when the snapshot
// is written.
func NewCellSnapshot(c Cell, res *Result) *CellSnapshot {
	return &CellSnapshot{
		Version:       SnapshotVersion,
		Name:          c.Name(),
		Seed:          c.Seed,
		Dataset:       c.Dataset.String(),
		Days:          res.Config.Days,
		Axes:          c.AxisValues(),
		Hosts:         res.Testbed.N(),
		Methods:       res.Agg.Methods(),
		RONProbes:     res.RONProbes,
		MeasureProbes: res.MeasureProbes,
		RouteChanges:  res.RouteChanges,
		agg:           res.Agg,
	}
}

// AppendContainer appends the snapshot's on-disk container — magic,
// length-prefixed JSON metadata, length-prefixed aggregator payload,
// trailing CRC-32 of the container bytes — to buf and returns the
// extended slice. Passing a buffer retained across cells lets a sweep
// persist every finished cell without allocating a payload-sized
// temporary each time.
func (s *CellSnapshot) AppendContainer(buf []byte) ([]byte, error) {
	meta, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	start := len(buf)
	buf = append(buf, snapshotMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta)))
	buf = append(buf, meta...)
	// The aggregator payload's length prefix is backfilled once the
	// payload has been appended in place (no separate payload buffer).
	lenOff := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf, err = s.agg.AppendBinary(buf)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(buf[lenOff:], uint32(len(buf)-lenOff-4))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:])), nil
}

// WriteFileBuf stores the snapshot at path atomically (see
// WriteSnapshotFile). The container is assembled into scratch's storage
// (grown as needed; nil is fine) and the grown buffer is returned for
// the caller's next write, so persisting a stream of cells allocates no
// per-cell temporaries.
func (s *CellSnapshot) WriteFileBuf(path string, scratch []byte) ([]byte, error) {
	buf, err := s.AppendContainer(scratch[:0])
	if err != nil {
		return scratch, err
	}
	return buf, WriteSnapshotFile(path, buf)
}

// WriteSnapshotFile stores an encoded snapshot container at path
// atomically — a temporary file in the same directory, renamed into
// place, parent directories created as needed — so readers only ever
// see absent or complete snapshots. It is the write half of
// WriteFileBuf, exported for a coordinator persisting the exact bytes
// a worker delivered.
func WriteSnapshotFile(path string, container []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	// A process killed between CreateTemp and rename leaves a .tmp*
	// file behind; sweep directories are compared and rsynced whole, so
	// sweep stale debris before writing rather than letting it ride
	// along forever.
	if stale, err := filepath.Glob(path + ".tmp*"); err == nil {
		for _, s := range stale {
			os.Remove(s)
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(container); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// ParseCellSnapshot verifies and decodes a snapshot container from
// memory: CRC-32 first, then structure, magic, version, and
// metadata/aggregator consistency, so a payload truncated or corrupted
// in flight — or a stray file — is rejected rather than read as data.
func ParseCellSnapshot(data []byte) (*CellSnapshot, error) {
	return parseCellSnapshot(data, "payload", nil)
}

// AdmitCell is the one check that decides whether a snapshot container
// is cell i's result — for a worker's upload, and (through ReadCell) for
// a file on disk: CRC and structure by the container parse, the cell's
// identity (name and coordinate-derived seed) against cell i, and the
// aggregator by restoring it under Config(i). A snapshot that parses but
// belongs to another grid point fails with an error wrapping
// ErrSnapshotMismatch. The aggregator decodes into scratch's storage
// when scratch has the payload's shape (see
// analysis.UnmarshalAggregatorInto; nil allocates). The caller gives
// scratch up on success; on error scratch is the caller's again, good
// only for another decode. The Result aliases none of container.
func (s *Sweep) AdmitCell(i int, container []byte, scratch *analysis.Aggregator) (*Result, error) {
	return s.admit(i, container, "payload", scratch)
}

// ReadCell reads cell i's snapshot from the sweep output directory dir
// (CellSnapshotPath) and admits it: every read of a snapshot file, a
// run's reload and the offline tools' alike, passes AdmitCell's check
// against this sweep's cell and Config. An absent file reports
// fs.ErrNotExist.
func (s *Sweep) ReadCell(i int, dir string) (*Result, error) {
	res, _, err := s.readCell(i, dir)
	return res, err
}

// readCell is ReadCell also returning the container bytes it read.
func (s *Sweep) readCell(i int, dir string) (*Result, []byte, error) {
	path := CellSnapshotPath(dir, s.cells[i].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.admit(i, data, path, nil)
	return res, data, err
}

// admit is AdmitCell naming src (a path, or "payload") in every error.
func (s *Sweep) admit(i int, data []byte, src string, scratch *analysis.Aggregator) (*Result, error) {
	snap, err := parseCellSnapshot(data, src, scratch)
	if err != nil {
		return nil, err
	}
	if c := s.cells[i]; snap.Name != c.Name() || snap.Seed != c.Seed {
		return nil, fmt.Errorf("core: cell snapshot %s is for %s seed %d, cell is %s seed %d: %w",
			src, snap.Name, snap.Seed, c.Name(), c.Seed, ErrSnapshotMismatch)
	}
	return snap.restore(s.cfgs[i], "core: cell snapshot "+src)
}

// parseCellSnapshot decodes a snapshot container, naming src (a path,
// or "payload" for wire deliveries) in every error.
func parseCellSnapshot(data []byte, src string, scratch *analysis.Aggregator) (*CellSnapshot, error) {
	corrupt := func(why string) error {
		return fmt.Errorf("core: cell snapshot %s: %s", src, why)
	}
	if len(data) < len(snapshotMagic)+12 {
		return nil, corrupt("too short")
	}
	if string(data[:len(snapshotMagic)]) != string(snapshotMagic) {
		return nil, corrupt("bad magic (not a cell snapshot)")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, corrupt(fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", sum, got))
	}
	off := len(snapshotMagic)
	metaLen := int(binary.LittleEndian.Uint32(body[off : off+4]))
	off += 4
	if metaLen < 0 || off+metaLen+4 > len(body) {
		return nil, corrupt("metadata length out of range")
	}
	var snap CellSnapshot
	if err := json.Unmarshal(body[off:off+metaLen], &snap); err != nil {
		return nil, corrupt("metadata: " + err.Error())
	}
	off += metaLen
	aggLen := int(binary.LittleEndian.Uint32(body[off : off+4]))
	off += 4
	if aggLen < 0 || off+aggLen != len(body) {
		return nil, corrupt("aggregator length out of range")
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("core: cell snapshot %s: unsupported version %d (want %d)",
			src, snap.Version, SnapshotVersion)
	}
	agg, err := analysis.UnmarshalAggregatorInto(body[off:], scratch)
	if err != nil {
		return nil, fmt.Errorf("core: cell snapshot %s: %w", src, err)
	}
	if agg.Hosts() != snap.Hosts {
		return nil, corrupt(fmt.Sprintf("metadata says %d hosts, aggregator has %d", snap.Hosts, agg.Hosts()))
	}
	if got := agg.Methods(); len(got) != len(snap.Methods) {
		return nil, corrupt(fmt.Sprintf("metadata lists %d methods, aggregator has %d", len(snap.Methods), len(got)))
	} else {
		for i := range got {
			if got[i] != snap.Methods[i] {
				return nil, corrupt(fmt.Sprintf("method %d: metadata %q vs aggregator %q", i, snap.Methods[i], got[i]))
			}
		}
	}
	snap.agg = agg
	return &snap, nil
}

// ErrSnapshotMismatch reports a snapshot that is internally valid but
// belongs to another grid point than the cell it was read for: another
// name or seed, or another dataset, campaign length, testbed size or
// method set than the cell's Config — typically debris from a rerun
// with another base seed or -days. Distinguishable from corruption
// (checksum errors) and absence (fs.ErrNotExist) so consumers can
// decide whether other artifacts with the same provenance (trace files)
// are still trustworthy.
var ErrSnapshotMismatch = errors.New("snapshot belongs to another grid")

// Restore rebuilds the cell's Result under the given Config, verifying
// that the snapshot belongs to that exact grid point — dataset, seed,
// campaign length, testbed size, and method set must all match (a
// mismatch wraps ErrSnapshotMismatch), so a resumed sweep never
// silently adopts results from a different grid.
func (s *CellSnapshot) Restore(cfg Config) (*Result, error) {
	return s.restore(cfg, "core: snapshot "+s.Name)
}

// restore is Restore with every error prefixed by src.
func (s *CellSnapshot) restore(cfg Config, src string) (*Result, error) {
	mismatch := func(what string, got, want any) error {
		return fmt.Errorf("%s: %s is %v, grid wants %v: %w", src, what, got, want, ErrSnapshotMismatch)
	}
	if ds := cfg.Dataset.String(); s.Dataset != ds {
		return nil, mismatch("dataset", s.Dataset, ds)
	}
	if s.Seed != cfg.Seed {
		return nil, mismatch("seed", s.Seed, cfg.Seed)
	}
	if s.Days != cfg.Days {
		return nil, mismatch("days", s.Days, cfg.Days)
	}
	tb := cfg.testbed()
	if s.Hosts != tb.N() {
		return nil, mismatch("hosts", s.Hosts, tb.N())
	}
	methods := cfg.methods()
	if len(methods) != len(s.Methods) {
		return nil, mismatch("method count", len(s.Methods), len(methods))
	}
	for i, m := range methods {
		if m.Name != s.Methods[i] {
			return nil, mismatch(fmt.Sprintf("method %d", i), s.Methods[i], m.Name)
		}
	}
	return &Result{
		Config:        cfg,
		Testbed:       tb,
		Methods:       methods,
		Agg:           s.agg,
		RONProbes:     s.RONProbes,
		MeasureProbes: s.MeasureProbes,
		RouteChanges:  s.RouteChanges,
	}, nil
}
