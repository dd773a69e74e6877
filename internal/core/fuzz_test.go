package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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
		res, err := Run(cfg)
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
