package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
)

// fleetSpec is the test grid: 1 dataset × hysteresis {0, 0.25} ×
// 2 replicas = 4 cells in 2 merge groups, each cell a compressed
// campaign of ~20ms.
func fleetSpec() core.SweepSpec {
	return core.SweepSpec{
		Datasets: []core.Dataset{core.RONnarrow},
		Days:     0.02,
		BaseSeed: 7,
		Replicas: 2,
		Axes:     []core.Axis{core.HysteresisAxis(0, 0.25)},
	}
}

// runLocal runs fleetSpec in one process: the result a fleet must
// reproduce.
func runLocal(t *testing.T) *core.SweepResult {
	t.Helper()
	s, err := core.NewSweep(fleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// renderGroups renders every merged group's tables — the same artifact
// the golden sweep test hashes — keyed by group name.
func renderGroups(t *testing.T, res *core.SweepResult) map[string]string {
	t.Helper()
	out := map[string]string{}
	for gi := range res.Groups {
		g := &res.Groups[gi]
		if g.Merged == nil {
			t.Fatalf("group %s not merged", g.Name())
		}
		out[g.Name()] = analysis.RenderTable5(g.Merged.Table5Rows(), g.Merged.LatencyLabel()) +
			analysis.RenderTable6(g.Merged.Agg.HighLossHours())
	}
	return out
}

// requireIdentical asserts the fleet's rendered output matches the
// single-process run's, group for group, byte for byte.
func requireIdentical(t *testing.T, local, fleet *core.SweepResult) {
	t.Helper()
	want := renderGroups(t, local)
	got := renderGroups(t, fleet)
	if len(got) != len(want) {
		t.Fatalf("fleet produced %d groups, single-process run %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("group %s missing from fleet result", name)
			continue
		}
		if g != w {
			t.Errorf("group %s: fleet output differs from single-process run\nfleet:\n%s\nlocal:\n%s", name, g, w)
		}
	}
}

// snapshotBytes computes cell i the way a worker would and returns its
// upload payload.
func snapshotBytes(t *testing.T, s *core.Sweep, i int) []byte {
	t.Helper()
	res, err := core.NewArena().RunRetained(s.Config(i))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := core.NewCellSnapshot(s.Cells()[i], res).AppendContainer(nil)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// httpLease POSTs a lease request to a test server.
func httpLease(t *testing.T, base, worker string) LeaseResponse {
	t.Helper()
	body, _ := json.Marshal(LeaseRequest{Worker: worker})
	resp, err := http.Post(base+PathLease, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease: %s", resp.Status)
	}
	var lr LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	return lr
}

// httpRenew POSTs a renewal and returns the HTTP status code.
func httpRenew(t *testing.T, base string, lease uint64) int {
	t.Helper()
	body, _ := json.Marshal(RenewRequest{Lease: lease})
	resp, err := http.Post(base+PathRenew, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// httpComplete uploads a snapshot payload and returns the response and
// status code.
func httpComplete(t *testing.T, base string, cell int, payload []byte) (CompleteResponse, int) {
	t.Helper()
	url := fmt.Sprintf("%s%s?cell=%d&wall=5", base, PathComplete, cell)
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr CompleteResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
	}
	return cr, resp.StatusCode
}

// TestCoordinatorFaultInjectionHTTP drives the wire protocol by hand
// under a fake clock — no sleeps, every expiry explicit: a worker goes
// silent mid-cell, its lease expires and re-dispatches, the straggler
// delivers a duplicate which is validated and discarded, and the merged
// output is byte-identical to a single-process run of the same spec.
func TestCoordinatorFaultInjectionHTTP(t *testing.T) {
	spec := fleetSpec()
	sweep, err := core.NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	outDir := t.TempDir()
	c, err := New(Config{Sweep: sweep, LeaseTTL: time.Minute, Now: clk.Now, OutDir: outDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(c).Handler())
	defer ts.Close()

	// The manifest endpoint serves a grid workers can re-expand into the
	// identical cells and seeds.
	resp, err := http.Get(ts.URL + PathManifest)
	if err != nil {
		t.Fatal(err)
	}
	var m core.SweepManifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	mspec, err := m.SweepSpec()
	if err != nil {
		t.Fatal(err)
	}
	remote, err := core.NewSweep(mspec)
	if err != nil {
		t.Fatal(err)
	}
	cells := sweep.Cells()
	for i, rc := range remote.Cells() {
		if rc.Name() != cells[i].Name() || rc.Seed != cells[i].Seed {
			t.Fatalf("manifest round-trip: cell %d is %s/%d, want %s/%d",
				i, rc.Name(), rc.Seed, cells[i].Name(), cells[i].Seed)
		}
	}

	// w1 leases the first cell, heartbeats once, then goes silent.
	l1 := httpLease(t, ts.URL, "w1")
	if l1.Status != StatusGranted || l1.Cell != 0 {
		t.Fatalf("first lease: %+v", l1)
	}
	clk.Advance(30 * time.Second)
	if code := httpRenew(t, ts.URL, l1.Lease); code != http.StatusOK {
		t.Fatalf("live renewal returned %d", code)
	}

	// w2 takes the remaining cells; the queue then has only w1's live
	// lease outstanding, so w2 is told to wait. Over HTTP that request
	// would be held until the fake clock moved, so ask Grant directly.
	var w2Leases []LeaseResponse
	for range len(cells) - 1 {
		l := httpLease(t, ts.URL, "w2")
		if l.Status != StatusGranted {
			t.Fatalf("w2 lease %d: %+v", len(w2Leases), l)
		}
		w2Leases = append(w2Leases, l)
	}
	if l := c.Grant("w2"); l.Status != StatusWait {
		t.Fatalf("expected wait, got %+v", l)
	}

	// w1's lease expires; w2's next ask re-dispatches cell 0 under a new
	// lease, and w1's heartbeat now gets 410 Gone.
	clk.Advance(2 * time.Minute)
	l0 := httpLease(t, ts.URL, "w2")
	if l0.Status != StatusGranted || l0.Cell != 0 || l0.Lease == l1.Lease {
		t.Fatalf("straggler re-dispatch: %+v", l0)
	}
	if code := httpRenew(t, ts.URL, l1.Lease); code != http.StatusGone {
		t.Fatalf("revoked lease renewal returned %d, want 410", code)
	}

	// Garbage and misdirected uploads are rejected without corrupting
	// state.
	if _, code := httpComplete(t, ts.URL, 0, []byte("not a snapshot")); code != http.StatusBadRequest {
		t.Fatalf("garbage upload returned %d, want 400", code)
	}
	payload0 := snapshotBytes(t, sweep, 0)
	if _, code := httpComplete(t, ts.URL, 1, payload0); code != http.StatusBadRequest {
		t.Fatalf("misdirected upload (cell 0's bytes as cell 1) returned %d, want 400", code)
	}

	// w2 delivers cell 0; w1's straggler then delivers the same cell —
	// accepted, flagged duplicate, ignored.
	cr, code := httpComplete(t, ts.URL, 0, payload0)
	if code != http.StatusOK || cr.Duplicate {
		t.Fatalf("first delivery: code %d, %+v", code, cr)
	}
	cr, code = httpComplete(t, ts.URL, 0, payload0)
	if code != http.StatusOK || !cr.Duplicate {
		t.Fatalf("duplicate delivery: code %d, %+v", code, cr)
	}

	// Deliver the rest and drain.
	for _, l := range w2Leases {
		if _, code := httpComplete(t, ts.URL, l.Cell, snapshotBytes(t, sweep, l.Cell)); code != http.StatusOK {
			t.Fatalf("delivering cell %d: code %d", l.Cell, code)
		}
	}
	select {
	case <-c.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator did not reach done")
	}
	if l := httpLease(t, ts.URL, "w3"); l.Status != StatusDone {
		t.Fatalf("drained coordinator granted %+v", l)
	}

	// /progress reports completion.
	presp, err := http.Get(ts.URL + PathProgress)
	if err != nil {
		t.Fatal(err)
	}
	var prog Progress
	if err := json.NewDecoder(presp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if !prog.Complete || prog.DoneCells != len(cells) {
		t.Fatalf("progress after drain: %+v", prog)
	}
	for _, g := range prog.Groups {
		if !g.Merged || g.Done != g.Cells {
			t.Errorf("group %s progress incomplete after drain: %+v", g.Name, g)
		}
	}

	// Byte-identity against a single-process run, and the persisted
	// snapshots reload cleanly.
	requireIdentical(t, runLocal(t), c.Result())
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for _, cell := range cells {
		path := core.CellSnapshotPath(outDir, cell.Name())
		if _, err := readSnapshot(path); err != nil {
			t.Errorf("persisted snapshot %s: %v", path, err)
		}
	}
}

// TestFleetEndToEnd runs a coordinator and three real Worker loops in
// process over a short real-time lease TTL: one worker is killed after
// computing its first cell (never uploads — its lease expires and the
// cell re-dispatches), one never heartbeats and delays past the TTL
// before uploading (its delivery lands as a duplicate of the
// re-dispatched copy, or as a late first — both legal), one is healthy
// and double-delivers everything. The merged output must still be
// byte-identical to a single-process run.
func TestFleetEndToEnd(t *testing.T) {
	spec := fleetSpec()
	sweep, err := core.NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	const ttl = 500 * time.Millisecond
	outDir := t.TempDir()
	c, err := New(Config{Sweep: sweep, LeaseTTL: ttl, OutDir: outDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(c).Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The victim runs first, alone, so it deterministically owns a cell:
	// it computes it, exits before uploading, and leaves an orphaned
	// lease the fleet must recover by expiry.
	var killed atomic.Bool
	victim := NewWorker(ts.URL, WithName("victim"), WithBeforeUpload(func(core.Cell) bool {
		killed.Store(true)
		return false
	}))
	if err := victim.Run(ctx); err != nil {
		t.Fatalf("victim: %v", err)
	}
	if !killed.Load() {
		t.Fatal("fault injection never fired: the victim worker got no cell")
	}

	workers := []*Worker{
		// Silent straggler: no heartbeats, and every cell stalls past
		// the TTL before uploading, so its leases always expire and its
		// deliveries race the re-dispatched copies.
		NewWorker(ts.URL, WithName("straggler"), WithoutHeartbeats(),
			WithBeforeUpload(func(core.Cell) bool {
				time.Sleep(2 * ttl)
				return true
			})),
		// Healthy, but delivering everything twice.
		NewWorker(ts.URL, WithName("doubler"), WithDuplicateUploads()),
	}
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	select {
	case <-c.Done():
	case <-time.After(time.Minute):
		t.Fatal("fleet drained but coordinator not done")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, runLocal(t), c.Result())

	res := c.Result()
	if res.Selected != len(res.Cells) || res.Reused != 0 {
		t.Errorf("selected/reused = %d/%d, want %d/0", res.Selected, res.Reused, len(res.Cells))
	}
	for _, cr := range res.Cells {
		if cr.Res == nil || cr.Skipped || cr.Cached {
			t.Errorf("cell %s: res=%v skipped=%v cached=%v", cr.Cell.Name(), cr.Res != nil, cr.Skipped, cr.Cached)
		}
	}
}

// TestCoordinatorReuseAndFilter covers the resume and sharding paths:
// cells satisfied from prior results are never leased (fully reused
// groups merge before any worker connects), and filtered-out cells are
// neither leased nor accepted.
func TestCoordinatorReuseAndFilter(t *testing.T) {
	// Group 0's cells, persisted below, are the "prior run" results
	// the spec's Resume directory hands back.
	prior := map[int]bool{}
	spec := fleetSpec()
	spec.Resume = t.TempDir()
	sweep, err := core.NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := sweep.Cells()
	for _, i := range sweep.GroupCells(0) {
		if err := core.WriteSnapshotFile(core.CellSnapshotPath(spec.Resume, cells[i].Name()), snapshotBytes(t, sweep, i)); err != nil {
			t.Fatal(err)
		}
		prior[i] = true
	}

	c, err := New(Config{Sweep: sweep, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// The fully reused group merged during New, before any lease.
	if groups := c.Snapshot().Groups; !groups[0].Merged || groups[1].Merged {
		t.Fatalf("reused group not merged eagerly: %+v", groups)
	}
	// Only the non-reused cells are grantable.
	granted := map[int]bool{}
	for {
		l, st := c.queue.Grant("w")
		if st != Granted {
			break
		}
		granted[c.slotCell[l.Item]] = true
	}
	for i := range cells {
		if reused := prior[i]; granted[i] == reused {
			t.Errorf("cell %d: reused=%v granted=%v", i, reused, granted[i])
		}
	}

	// Sharding: a filter selecting only replica 0 leaves groups
	// unmergeable and rejects uploads for unselected cells.
	shardSpec := fleetSpec()
	shardSpec.Filter = func(cell core.Cell) bool { return cell.Replica == 0 }
	shardSweep, err := core.NewSweep(shardSpec)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := New(Config{Sweep: shardSweep, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	var r1 int = -1
	for i, cell := range cells {
		if cell.Replica == 1 {
			r1 = i
			break
		}
	}
	res, err := core.NewArena().RunRetained(sweep.Config(r1))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := core.NewCellSnapshot(cells[r1], res).AppendContainer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Complete(r1, payload, 0); err == nil {
		t.Error("upload for a filtered-out cell accepted")
	}
}

// readSnapshot parses the cell snapshot file at path.
func readSnapshot(path string) (*core.CellSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return core.ParseCellSnapshot(data)
}
