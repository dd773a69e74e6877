package repro

import (
	"testing"

	"repro/experiment"
	"repro/internal/analysis"
	"repro/internal/resultstore"
)

// TestStoreRendersMatchDirect is the result store's byte-identity
// acceptance test: a persisting sweep writes results.seg alongside its
// snapshots, and re-rendering every paper table from the stored group
// rows must reproduce the direct renderer output byte for byte — the
// same contract the canned `ronreport -store ... -render` queries (and
// the query-e2e CI job) rely on. The grid crosses the scenario and
// streams axes so the rows carry all four tables: probe overview,
// high-loss hours, workload delivery, and outage resilience.
func TestStoreRendersMatchDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs 8 compressed campaigns")
	}
	dir := t.TempDir()
	e, err := experiment.New(
		experiment.Datasets(experiment.RONnarrow),
		experiment.Days(0.02),
		experiment.Seed(42),
		experiment.Replicas(2),
		experiment.Output(dir),
		experiment.AxisValues("scenario", "0", "outage"),
		experiment.AxisValues("streams", "0", "2"),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}

	seg, err := resultstore.ReadSegment(resultstore.SegmentPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if seg.TruncatedBytes != 0 {
		t.Fatalf("clean run left %d torn bytes in the store", seg.TruncatedBytes)
	}
	rows := seg.Unique()
	wantRows := len(res.Cells) + len(res.Groups)
	if len(rows) != wantRows {
		t.Fatalf("store holds %d rows, want %d (%d cells + %d groups)",
			len(rows), wantRows, len(res.Cells), len(res.Groups))
	}
	byID := make(map[string]*resultstore.Row, len(rows))
	for _, r := range rows {
		byID[r.Kind+":"+r.Name] = r
	}
	for _, c := range res.Cells {
		r := byID["cell:"+c.Cell.Name()]
		if r == nil {
			t.Fatalf("cell %s has no store row", c.Cell.Name())
		}
		if r.Snapshot == "" {
			t.Errorf("cell row %s lacks its snapshot path", r.Name)
		}
	}

	for gi := range res.Groups {
		g := &res.Groups[gi]
		r := byID["group:"+g.Name()]
		if r == nil {
			t.Fatalf("group %s has no store row", g.Name())
		}
		tables, err := resultstore.RowTables(r)
		if err != nil {
			t.Fatalf("group %s: %v", g.Name(), err)
		}

		m := g.Merged
		m.Agg.Flush()
		if got, want := analysis.RenderTable5(tables.Overview, tables.LatencyLabel),
			analysis.RenderTable5(m.Table5Rows(), m.LatencyLabel()); got != want {
			t.Errorf("group %s: stored Table 5 render diverges:\n got:\n%s\nwant:\n%s", g.Name(), got, want)
		}
		if got, want := analysis.RenderTable6(tables.Hours),
			analysis.RenderTable6(m.Agg.HighLossHours()); got != want {
			t.Errorf("group %s: stored Table 6 render diverges:\n got:\n%s\nwant:\n%s", g.Name(), got, want)
		}

		ws := m.Agg.Workload()
		hasWorkload := ws != nil && ws.HasData()
		if hasWorkload != (tables.Workload != nil) {
			t.Fatalf("group %s: direct workload table present=%v, stored=%v",
				g.Name(), hasWorkload, tables.Workload != nil)
		}
		if hasWorkload {
			if got, want := analysis.RenderWorkloadTable(tables.Workload),
				analysis.RenderWorkloadTable(ws.Table()); got != want {
				t.Errorf("group %s: stored workload render diverges:\n got:\n%s\nwant:\n%s", g.Name(), got, want)
			}
		}

		rs := m.Agg.Resilience()
		hasResilience := rs != nil && rs.HasData()
		if hasResilience != (tables.Resilience != nil) {
			t.Fatalf("group %s: direct resilience table present=%v, stored=%v",
				g.Name(), hasResilience, tables.Resilience != nil)
		}
		if hasResilience {
			if got, want := analysis.RenderResilienceTable(tables.Resilience),
				analysis.RenderResilienceTable(rs.Table()); got != want {
				t.Errorf("group %s: stored resilience render diverges:\n got:\n%s\nwant:\n%s", g.Name(), got, want)
			}
		}
	}
}
