package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/trace"
)

// encode writes recs as a trace stream.
func encode(tb testing.TB, recs []trace.Record) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadTrace: a trace file of any content goes through ronreport's
// whole path — ReadAll, Merge, Match, and an aggregator fed the way
// aggregateTraces feeds it — without a panic, and a stream ReadAll
// accepts re-encodes to exactly its own bytes.
func FuzzReadTrace(f *testing.F) {
	// A real short traced cell, cut to its first 96 records.
	cfg := core.DefaultConfig(core.RONnarrow, 0.0002)
	cfg.Seed = 3
	var cellRecs []trace.Record
	cfg.OnProbe = func(p *analysis.Probe) {
		if len(cellRecs) < 96 {
			cellRecs = trace.AppendProbe(cellRecs, p)
		}
	}
	res, err := core.NewArena().Run(cfg)
	if err != nil {
		f.Fatal(err)
	}
	names := res.Agg.Methods()
	hosts := res.Testbed.N()
	cell := encode(f, cellRecs[:96])
	f.Add(cell)
	f.Add(cell[:len(cell)/2])
	f.Add(cell[:8])
	// Hostile records a writer can still produce: a receive before (and
	// without) its send, copy fields past a pair, endpoints past the mesh,
	// a reused probe id, extreme times, a method id past the list.
	send := trace.Record{Kind: trace.KindSend, Node: 1, Peer: 2, ProbeID: 9, Time: 1000,
		Tactic: route.Loss, Copies: 2, Via: trace.NoNode}
	recv := send
	recv.Kind, recv.Node, recv.Peer, recv.Time = trace.KindRecv, 2, 1, 900
	hostile := []trace.Record{recv, send}
	for _, edit := range []func(r *trace.Record){
		func(r *trace.Record) { r.CopyIndex, r.Copies = 5, 200 },
		func(r *trace.Record) { r.Node, r.Peer = 0xFFFE, trace.NoNode },
		func(r *trace.Record) { r.Node, r.Peer = 1, 1 },
		func(r *trace.Record) { r.Node = 3 }, // same id, other source
		func(r *trace.Record) { r.Time = -1 << 63 },
		func(r *trace.Record) { r.Time = 1<<63 - 1 },
		func(r *trace.Record) { r.Method = 200 },
	} {
		r := send
		edit(&r)
		hostile = append(hostile, r)
	}
	f.Add(encode(f, hostile))
	// Bytes no writer produces: a bad kind, tactic and pad byte.
	for _, off := range []int{0, 22, 27} {
		bad := append([]byte(nil), cell[:8+28]...)
		bad[8+off] = 0xEE
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := trace.ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		if again := encode(t, recs); !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(again))
		}
		obs := trace.Match(trace.Merge(recs), hosts)
		agg := analysis.NewAggregator(names, hosts)
		for _, o := range obs {
			if o.Method < len(names) {
				agg.Observe(o)
			}
		}
		agg.Flush()
	})
}
