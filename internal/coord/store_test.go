package coord

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
)

// TestCoordinatorResultStore runs a one-worker fleet with a result
// store attached and checks the coordinator's sink contract: every
// completed cell and eagerly merged group lands as a row, /progress
// surfaces the running row count, and the segment reads back clean.
func TestCoordinatorResultStore(t *testing.T) {
	spec := fleetSpec()
	sweep, err := core.NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	st, err := resultstore.Open(resultstore.SegmentPath(outDir))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	c, err := New(Config{Sweep: sweep, LeaseTTL: time.Minute, OutDir: outDir, Results: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(c).Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := NewWorker(ts.URL, WithName("solo")).Run(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	case <-time.After(time.Minute):
		t.Fatal("worker drained but coordinator not done")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	res := c.Result()
	wantRows := int64(len(res.Cells) + len(res.Groups))
	if p := c.Snapshot(); p.StoredRows != wantRows {
		t.Errorf("/progress reports %d stored rows, want %d", p.StoredRows, wantRows)
	}
	if got := st.Rows(); got != wantRows {
		t.Errorf("store holds %d rows, want %d", got, wantRows)
	}

	seg, err := resultstore.ReadSegment(resultstore.SegmentPath(outDir))
	if err != nil {
		t.Fatal(err)
	}
	if seg.TruncatedBytes != 0 {
		t.Fatalf("clean fleet run left %d torn bytes", seg.TruncatedBytes)
	}
	byID := map[string]bool{}
	for _, r := range seg.Unique() {
		byID[r.Kind+":"+r.Name] = true
	}
	for _, cr := range res.Cells {
		if !byID["cell:"+cr.Cell.Name()] {
			t.Errorf("cell %s missing from store", cr.Cell.Name())
		}
	}
	for gi := range res.Groups {
		if !byID["group:"+res.Groups[gi].Name()] {
			t.Errorf("group %s missing from store", res.Groups[gi].Name())
		}
	}
}
