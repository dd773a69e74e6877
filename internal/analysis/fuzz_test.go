package analysis_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

// cellPayloads runs three short real campaigns — probe-only, workload,
// and workload under an outage scenario — and returns their aggregator
// payloads: flags 0, workload, and workload|resilience.
func cellPayloads(f *testing.F) [][]byte {
	f.Helper()
	probe := core.DefaultConfig(core.RONnarrow, 0.01)
	probe.Seed = 3
	workload := probe
	workload.Workload = core.DefaultWorkloadConfig()
	scenario := workload
	scenario.Scenario.Preset = "outage"
	var out [][]byte
	for _, cfg := range []core.Config{probe, workload, scenario} {
		res, err := core.NewArena().Run(cfg)
		if err != nil {
			f.Fatal(err)
		}
		data, err := res.Agg.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// payloadHeader is a payload's lead: version, section flags, method and
// host counts, method names — with nothing behind it.
func payloadHeader(flags byte, hosts uint32, methods ...string) []byte {
	b := []byte{analysis.SnapshotCodecVersion, flags}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(methods)))
	b = binary.LittleEndian.AppendUint32(b, hosts)
	for _, m := range methods {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(m)))
		b = append(b, m...)
	}
	return b
}

// allocated reports the bytes fn allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzUnmarshalAggregator: the decoder never panics, never allocates
// more than a small multiple of what it was handed (a header's claims
// size nothing until the payload is long enough to back them), and what
// it accepts is a fixed point after one re-encode: the encoding of an
// accepted input decodes, and encodes to itself.
func FuzzUnmarshalAggregator(f *testing.F) {
	cells := cellPayloads(f)
	for _, p := range cells {
		f.Add(p)
		f.Add(p[:len(p)/2])
	}
	probe := cells[0]
	a, err := analysis.UnmarshalAggregator(probe)
	if err != nil {
		f.Fatal(err)
	}
	edit := func(p []byte, off int, b ...byte) []byte {
		p = append([]byte(nil), p...)
		copy(p[off:], b)
		return p
	}
	// Every retired codec version, an unknown section, and sections
	// flagged with nothing behind them.
	for v := byte(0); v <= 4; v++ {
		f.Add(edit(probe, 0, v))
	}
	f.Add(edit(probe, 1, 0x80))
	f.Add(edit(probe, 1, 3))
	// Counts no payload could back: a 50000-host mesh, 1024 methods, a
	// 4 GB method name, and 2³¹ window-sample runs where the first
	// method's real count stands (past the header and the 104-byte
	// record of every (method, path)).
	f.Add(payloadHeader(0, 50000, "direct"))
	f.Add(payloadHeader(0, 2, make([]string, 1024)...))
	f.Add(edit(payloadHeader(0, 17, ""), 10, 0xff, 0xff, 0xff, 0xff))
	runs := len(payloadHeader(0, 0, a.Methods()...)) + len(a.Methods())*a.Hosts()*a.Hosts()*104
	f.Add(edit(probe, runs, 0xff, 0xff, 0xff, 0x7f))

	f.Fuzz(func(t *testing.T, data []byte) {
		var a *analysis.Aggregator
		var err error
		if got, limit := allocated(func() { a, err = analysis.UnmarshalAggregator(data) }), uint64(64<<10+8*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, over the %d bound", len(data), got, limit)
		}
		if err != nil {
			return
		}
		first, err := a.AppendBinary(nil)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		b, err := analysis.UnmarshalAggregator(first)
		if err != nil {
			t.Fatalf("re-encoding of an accepted input is refused: %v", err)
		}
		second, err := b.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not a fixed point: %d bytes, then %d", len(first), len(second))
		}
	})
}
