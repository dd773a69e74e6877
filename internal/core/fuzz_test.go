package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// cellContainers runs three short real campaigns — probe-only, workload,
// and workload under an outage scenario — and returns their snapshot
// containers.
func cellContainers(f *testing.F) [][]byte {
	f.Helper()
	probe := DefaultConfig(RONnarrow, sweepDays)
	probe.Seed = 3
	workload := probe
	workload.Workload = DefaultWorkloadConfig()
	scenario := workload
	scenario.Scenario.Preset = "outage"
	var out [][]byte
	for _, cfg := range []Config{probe, workload, scenario} {
		res, err := NewArena().Run(cfg)
		if err != nil {
			f.Fatal(err)
		}
		cell := Cell{Dataset: cfg.Dataset, Seed: cfg.Seed}
		data, err := NewCellSnapshot(cell, res).AppendContainer(nil)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// resealed returns data with its last four bytes replaced by the CRC-32
// of the rest, so a damaged container reaches the checks behind the
// checksum.
func resealed(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.ChecksumIEEE(body))
}

// FuzzParseCellSnapshot: the snapshot reader never panics, never
// allocates more than a small multiple of what it was handed — with the
// checksum honest or (reseal) forged to vouch for the damage — and what
// it accepts is a fixed point after one re-encode: the container of an
// accepted snapshot parses, and encodes to itself.
func FuzzParseCellSnapshot(f *testing.F) {
	cells := cellContainers(f)
	for _, c := range cells {
		f.Add(c, false)
		f.Add(c[:len(c)/2], true)
	}
	probe := cells[0]
	edit := func(off int, b ...byte) []byte {
		p := append([]byte(nil), probe...)
		copy(p[off:], b)
		return p
	}
	metaLen := int(binary.LittleEndian.Uint32(probe[len(snapshotMagic):]))
	metaOff := len(snapshotMagic) + 4
	aggOff := metaOff + metaLen + 4
	// Section lengths no container could back, each vouched for by a
	// fresh checksum.
	f.Add(edit(len(snapshotMagic), 0xff, 0xff, 0xff, 0xff), true)
	f.Add(edit(aggOff-4, 0xff, 0xff, 0xff, 0x7f), true)
	f.Add(edit(aggOff-4, 0, 0, 0, 0), true)
	// The previous snapshot version, and metadata that disagrees with
	// its aggregator about the mesh.
	meta := string(probe[metaOff : metaOff+metaLen])
	for _, swap := range [][2]string{{`"version":2`, `"version":1`}, {`"hosts":17`, `"hosts":71`}} {
		if !strings.Contains(meta, swap[0]) {
			f.Fatalf("snapshot metadata %s lacks %s", meta, swap[0])
		}
		f.Add(edit(metaOff, []byte(strings.Replace(meta, swap[0], swap[1], 1))...), true)
	}
	// An aggregator header claiming a 50000-host mesh (its host count
	// follows the codec version, section flags and method count), and
	// each retired codec version.
	f.Add(edit(aggOff+6, 0x50, 0xc3, 0, 0), true)
	for v := byte(1); v <= 4; v++ {
		f.Add(edit(aggOff, v), true)
	}

	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			data = resealed(data)
		}
		var snap *CellSnapshot
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err = ParseCellSnapshot(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+8*len(data)); got > limit {
			t.Fatalf("parsing %d bytes allocated %d, over the %d bound", len(data), got, limit)
		}
		if err != nil {
			return
		}
		first, err := snap.AppendContainer(nil)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		again, err := ParseCellSnapshot(first)
		if err != nil {
			t.Fatalf("container of an accepted snapshot is refused: %v", err)
		}
		second, err := again.AppendContainer(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not a fixed point: %d bytes, then %d", len(first), len(second))
		}
	})
}

// FuzzReadManifest: the manifest reader and SweepSpec never panic, and
// a manifest they accept is a fixed point: written back and read again
// it yields an equal spec.
func FuzzReadManifest(f *testing.F) {
	spec := fleetTestSpec()
	w := DefaultWorkloadConfig()
	spec.Workload = &w
	s, err := NewSweep(spec)
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.MarshalIndent(s.Manifest(nil, nil), "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(bytes.Replace(good, []byte(`"version": 3`), []byte(`"version": 2`), 1))
	f.Add(bytes.Replace(good, []byte(`"RONnarrow"`), []byte(`"atlantis"`), 1))
	f.Add(bytes.Replace(good, []byte(`"hysteresis"`), []byte(`"warpfactor"`), 1))
	f.Add(bytes.Replace(good, []byte(`"0.25"`), []byte(`"-1"`), 1))
	f.Add([]byte("{not json"))
	f.Add([]byte(`{"version": 3, "groups": [{"hosts": -1, "methods": []}]}`))
	// One directory per fuzz worker: executions within a worker are
	// sequential, and a fresh t.TempDir per input stalls the fuzzer.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(dir)
		if err != nil {
			return
		}
		spec, err := m.SweepSpec()
		if err != nil {
			return
		}
		if err := m.Write(dir); err != nil {
			t.Fatalf("accepted manifest does not re-marshal: %v", err)
		}
		back, err := ReadManifest(dir)
		if err != nil {
			t.Fatalf("re-marshalled manifest does not read: %v", err)
		}
		spec2, err := back.SweepSpec()
		if err != nil {
			t.Fatalf("re-read manifest has no spec: %v", err)
		}
		if a, b := specView(spec), specView(spec2); !reflect.DeepEqual(a, b) {
			t.Fatalf("spec moved through a re-marshal:\n%+v\n%+v", a, b)
		}
	})
}

// specView is a SweepSpec with each axis reduced to its name and values,
// so two independently constructed specs compare with reflect.DeepEqual.
func specView(s SweepSpec) any {
	type axis struct {
		Name   string
		Values []AxisValue
	}
	axes := make([]axis, len(s.Axes))
	for i, a := range s.Axes {
		axes[i] = axis{a.Name(), a.Values()}
	}
	s.Axes = nil
	return struct {
		Spec SweepSpec
		Axes []axis
	}{s, axes}
}

// FuzzParseCellFilter: the -cells parser never panics, and an accepted
// filter's Match is total over a 2-dataset × 8-replica grid and selects
// exactly the union of what its terms select one at a time.
func FuzzParseCellFilter(f *testing.F) {
	for _, seed := range []string{"0", "0-3", "ron2003-r00", "ron2003", "*-r00", "ronnarrow-*",
		"0-1,ronnarrow-*", "*-r00,tpyo-*", "*-r00,99", "", " , ", "[", "7-3", "-3", "3-", "99999999999999999999", `\`} {
		f.Add(seed)
	}
	s, err := NewSweep(SweepSpec{Datasets: []Dataset{RON2003, RONnarrow}, Days: sweepDays, Replicas: 8})
	if err != nil {
		f.Fatal(err)
	}
	cells := s.Cells()
	f.Fuzz(func(t *testing.T, spec string) {
		filt, err := ParseCellFilter(spec)
		if err != nil {
			return
		}
		var terms []*CellFilter
		for _, raw := range strings.Split(spec, ",") {
			if one, err := ParseCellFilter(raw); err == nil {
				terms = append(terms, one)
			}
		}
		for _, c := range cells {
			union := false
			for _, one := range terms {
				union = union || one.Match(c)
			}
			if filt.Match(c) != union {
				t.Fatalf("filter %q: Match(%s) = %v, its terms one at a time say %v", spec, c.Name(), !union, union)
			}
		}
		_ = filt.Validate(cells)
	})
}
