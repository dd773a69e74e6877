package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// TestTracePipelineConsistency runs a campaign that both aggregates its
// observations directly and emits §4.1 trace records, then pushes the
// records through the full offline pipeline (merge → match → aggregate)
// and checks the two paths produce identical Table 5 statistics. This is
// the strongest check we have that the trace matcher implements exactly
// the semantics the campaign assumes.
func TestTracePipelineConsistency(t *testing.T) {
	var records []trace.Record
	cfg := DefaultConfig(RONnarrow, 0.03)
	cfg.Seed = 17
	cfg.TraceSink = func(r trace.Record) { records = append(records, r) }
	res, err := NewArena().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("trace sink received nothing")
	}

	obs := trace.Match(trace.Merge(records), res.Testbed.N())
	if int64(len(obs)) != res.MeasureProbes {
		t.Fatalf("matcher recovered %d probes, campaign sent %d",
			len(obs), res.MeasureProbes)
	}

	names := res.Agg.Methods()
	offline := analysis.NewAggregator(names, res.Testbed.N())
	for _, o := range obs {
		offline.Observe(o)
	}
	offline.Flush()

	for m := range names {
		live := res.Agg.Totals(m)
		re := offline.Totals(m)
		if live != re {
			t.Errorf("method %q: live %+v != offline %+v", names[m], live, re)
		}
	}
	// The window machinery must agree too (same observation times).
	for m := range names {
		lw, rw := res.Agg.WindowRateCDF(m), offline.WindowRateCDF(m)
		if lw.N() != rw.N() || lw.Mean() != rw.Mean() {
			t.Errorf("method %q: window samples differ: %d/%.6f vs %d/%.6f",
				names[m], lw.N(), lw.Mean(), rw.N(), rw.Mean())
		}
	}
}

// TestTracingLeavesOutputUnchanged: a TraceSink observes a campaign and
// changes nothing it computes — the report text and the aggregator's
// snapshot bytes of a traced run equal the untraced run's at the same
// seed — and the §4.1 probe ids it is handed are distinct.
func TestTracingLeavesOutputUnchanged(t *testing.T) {
	for _, ds := range []Dataset{RONnarrow, RON2003} {
		run := func(sink func(trace.Record)) (string, []byte) {
			cfg := DefaultConfig(ds, 0.005)
			cfg.Seed = 29
			cfg.TraceSink = sink
			res, err := NewArena().Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := res.Agg.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			return res.Report(), snap
		}
		ids := make(map[uint64][2]uint16)
		var sends int
		plainReport, plainSnap := run(nil)
		tracedReport, tracedSnap := run(func(r trace.Record) {
			if r.Kind != trace.KindSend || r.CopyIndex != 0 {
				return
			}
			sends++
			if prev, dup := ids[r.ProbeID]; dup {
				t.Fatalf("%v: probe id %#x reused: %d→%d and %d→%d", ds, r.ProbeID, prev[0], prev[1], r.Node, r.Peer)
			}
			ids[r.ProbeID] = [2]uint16{r.Node, r.Peer}
		})
		if sends == 0 {
			t.Fatalf("%v: trace sink saw no sends", ds)
		}
		if tracedReport != plainReport {
			t.Errorf("%v: tracing changed the report:\n--- untraced\n%s\n--- traced\n%s", ds, plainReport, tracedReport)
		}
		if !bytes.Equal(tracedSnap, plainSnap) {
			t.Errorf("%v: tracing changed the aggregator snapshot (%d vs %d bytes)", ds, len(tracedSnap), len(plainSnap))
		}
	}
}

// TestTraceRecordsWellFormed sanity-checks the emitted records.
func TestTraceRecordsWellFormed(t *testing.T) {
	var records []trace.Record
	cfg := DefaultConfig(RON2003, 0.005)
	cfg.TraceSink = func(r trace.Record) { records = append(records, r) }
	res, err := NewArena().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := res.Testbed.N()
	var sends, recvs int
	lastSendTime := int64(-1)
	for _, r := range records {
		switch r.Kind {
		case trace.KindSend:
			sends++
			// Sends are emitted in event order; the delayed second
			// copy of a dd pair may lead the event clock by its gap
			// (≤ 20 ms), so allow that much backward skew.
			if r.Time < lastSendTime-int64(25*time.Millisecond) {
				t.Fatalf("send records out of order beyond dd gap: %d after %d",
					r.Time, lastSendTime)
			}
			if r.Time > lastSendTime {
				lastSendTime = r.Time
			}
		case trace.KindRecv:
			recvs++
		default:
			t.Fatalf("bad record kind %d", r.Kind)
		}
		if int(r.Node) >= n || int(r.Peer) >= n || r.Node == r.Peer {
			t.Fatalf("bad endpoints in record %+v", r)
		}
		if r.Copies < 1 || r.Copies > 2 || r.CopyIndex >= r.Copies {
			t.Fatalf("bad copy fields in record %+v", r)
		}
	}
	if sends == 0 || recvs == 0 {
		t.Fatal("no sends or no receives recorded")
	}
	if recvs > sends {
		t.Errorf("more receives (%d) than sends (%d)", recvs, sends)
	}
	// Loss is low; the vast majority of sends should have receives.
	if float64(recvs) < 0.95*float64(sends) {
		t.Errorf("receive fraction %.3f implausibly low", float64(recvs)/float64(sends))
	}
}
