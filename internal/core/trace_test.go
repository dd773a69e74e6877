package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// traceDatasets are the campaigns the trace tests run: RONwide's
// receive is stamped when the response is back, the others' on arrival.
var traceDatasets = []Dataset{RONnarrow, RON2003, RONwide}

// TestTracePipelineConsistency runs a campaign that both aggregates its
// observations directly and hands each probe to a hook that writes its
// §4.1 trace records, then pushes the records through the full offline
// pipeline (merge → match → aggregate): the replayed aggregator's
// encoded payload must equal the engine's byte for byte, for every
// dataset. This is the paper's own method (§4.1: per-host logs, merged
// and matched offline), and the strongest check that the trace matcher
// implements exactly the semantics the campaign assumes.
func TestTracePipelineConsistency(t *testing.T) {
	for _, ds := range traceDatasets {
		t.Run(ds.String(), func(t *testing.T) {
			var records []trace.Record
			cfg := DefaultConfig(ds, 0.03)
			cfg.Seed = 17
			cfg.OnProbe = func(p *analysis.Probe) { records = trace.AppendProbe(records, p) }
			res, err := NewArena().Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(records) == 0 {
				t.Fatal("the probe hook wrote no records")
			}

			obs := trace.Match(trace.Merge(records), res.Testbed.N())
			if int64(len(obs)) != res.MeasureProbes {
				t.Fatalf("matcher recovered %d probes, campaign sent %d",
					len(obs), res.MeasureProbes)
			}
			offline := analysis.NewAggregator(res.Agg.Methods(), res.Testbed.N())
			for _, o := range obs {
				offline.Observe(o)
			}
			offline.Flush()

			live, err := res.Agg.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := offline.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(live, replayed) {
				t.Fatalf("replayed payload (%d bytes) differs from the engine's (%d bytes)", len(replayed), len(live))
			}
		})
	}
}

// TestTracingLeavesOutputUnchanged: a probe hook watches a campaign and
// changes nothing it computes — for every watcher (none, the trace
// writer, a counting hook) and every dataset, the report text and the
// aggregator's snapshot bytes equal the unwatched run's at the same
// seed — and the §4.1 probe ids it is handed are distinct.
func TestTracingLeavesOutputUnchanged(t *testing.T) {
	for _, ds := range traceDatasets {
		run := func(hook func(*analysis.Probe)) (string, []byte) {
			cfg := DefaultConfig(ds, 0.005)
			cfg.Seed = 29
			cfg.OnProbe = hook
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
		var file bytes.Buffer
		tw, err := trace.NewWriter(&file)
		if err != nil {
			t.Fatal(err)
		}
		var recs []trace.Record
		ids := make(map[uint64][2]int)
		var probes int
		watchers := []struct {
			name string
			hook func(*analysis.Probe)
		}{
			{"trace writer", func(p *analysis.Probe) {
				recs = trace.AppendProbe(recs[:0], p)
				for _, r := range recs {
					if err := tw.Append(r); err != nil {
						t.Fatal(err)
					}
				}
			}},
			{"counting", func(p *analysis.Probe) {
				probes++
				if prev, dup := ids[p.ID]; dup {
					t.Fatalf("%v: probe id %#x reused: %d→%d and %d→%d", ds, p.ID, prev[0], prev[1], p.Src, p.Dst)
				}
				ids[p.ID] = [2]int{p.Src, p.Dst}
			}},
		}
		plainReport, plainSnap := run(nil)
		for _, w := range watchers {
			report, snap := run(w.hook)
			if report != plainReport {
				t.Errorf("%v: the %s hook changed the report:\n--- unwatched\n%s\n--- watched\n%s", ds, w.name, plainReport, report)
			}
			if !bytes.Equal(snap, plainSnap) {
				t.Errorf("%v: the %s hook changed the aggregator snapshot (%d vs %d bytes)", ds, w.name, len(snap), len(plainSnap))
			}
		}
		if tw.Count() == 0 || probes == 0 {
			t.Fatalf("%v: a watcher saw nothing: %d records, %d probes", ds, tw.Count(), probes)
		}
	}
}

// TestTraceRecordsWellFormed sanity-checks the emitted records.
func TestTraceRecordsWellFormed(t *testing.T) {
	var records []trace.Record
	cfg := DefaultConfig(RON2003, 0.005)
	cfg.OnProbe = func(p *analysis.Probe) { records = trace.AppendProbe(records, p) }
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
