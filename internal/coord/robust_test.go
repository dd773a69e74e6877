package coord

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestLeaseQueueRequeueAndStats covers the quarantine escape hatch and
// the fleet-health counters: Requeue revokes a live lease and returns
// the item to the FIFO, expiries count whether detected by the
// re-dispatch scan or a late renewal, and every grant of a previously
// leased item counts as a re-dispatch.
func TestLeaseQueueRequeueAndStats(t *testing.T) {
	clk := newFakeClock()
	q := NewLeaseQueue(2, time.Minute, clk.Now)

	l1, st := q.Grant("w1")
	if st != Granted || l1.Item != 0 {
		t.Fatalf("first grant: %v %+v", st, l1)
	}
	if e, r := q.Stats(); e != 0 || r != 0 {
		t.Fatalf("fresh queue stats = %d/%d, want 0/0", e, r)
	}

	// Requeue item 0 out from under its live lease.
	if !q.Requeue(0) {
		t.Fatal("Requeue(0) refused a leased item")
	}
	if _, err := q.Renew(l1.ID); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("renewing a requeued lease = %v, want ErrUnknownLease", err)
	}
	// Item 1 was never leased, so FIFO order serves it first; the
	// requeued item follows and counts as a re-dispatch.
	l2, st := q.Grant("w2")
	if st != Granted || l2.Item != 1 {
		t.Fatalf("post-requeue grant: %v %+v", st, l2)
	}
	l3, st := q.Grant("w2")
	if st != Granted || l3.Item != 0 || l3.ID == l1.ID {
		t.Fatalf("requeued item grant: %v %+v", st, l3)
	}
	if e, r := q.Stats(); e != 0 || r != 1 {
		t.Errorf("stats after requeue cycle = %d/%d, want 0/1", e, r)
	}

	// A late renewal counts the expiry; the subsequent grant counts the
	// re-dispatch.
	clk.Advance(2 * time.Minute)
	if _, err := q.Renew(l2.ID); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("late renewal = %v, want ErrLeaseExpired", err)
	}
	if e, r := q.Stats(); e != 1 || r != 1 {
		t.Errorf("stats after renew-expiry = %d/%d, want 1/1", e, r)
	}
	// Both items now sit in the FIFO (item 1 requeued by the failed
	// renewal; item 0's lease from l3 expired too and is found by the
	// scan once the FIFO drains).
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		l, st := q.Grant("w3")
		if st != Granted {
			t.Fatalf("re-grant %d: %v", i, st)
		}
		seen[l.Item] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("re-grants covered %v, want both items", seen)
	}
	_, r := q.Stats()
	if r != 3 {
		t.Errorf("redispatched = %d, want 3", r)
	}

	// Done items are left alone.
	q.Complete(0)
	if q.Requeue(0) {
		t.Error("Requeue accepted a done item")
	}
	if q.Requeue(-1) || q.Requeue(2) {
		t.Error("Requeue accepted an out-of-range item")
	}
}

// TestCoordinatorCrashRestartRecovery kills a coordinator mid-sweep
// (by dropping it) after it persisted a subset of cells, then starts a
// replacement over the same OutDir: the replacement must recover the
// persisted cells without leasing them, recompute a cell whose on-disk
// snapshot is torn, and finish the sweep byte-identical to a
// single-process run. Fake clock throughout — no wall-clock sleeps.
func TestCoordinatorCrashRestartRecovery(t *testing.T) {
	spec := fleetSpec()
	sweep, err := core.NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := sweep.Cells()
	clk := newFakeClock()
	outDir := t.TempDir()
	cfg := Config{Sweep: sweep, LeaseTTL: time.Minute, Now: clk.Now, OutDir: outDir}

	// Incarnation #1 accepts two cells, then "crashes" — it is simply
	// abandoned with its leases and in-memory state lost.
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		l := c1.Grant("w1")
		if l.Status != StatusGranted {
			t.Fatalf("incarnation 1 grant %d: %+v", i, l)
		}
		if _, err := c1.Complete(l.Cell, snapshotBytes(t, sweep, l.Cell), 0); err != nil {
			t.Fatalf("incarnation 1 delivery %d: %v", i, err)
		}
	}
	// A third cell is leased but never delivered: the crash orphans it.
	orphan := c1.Grant("w1")
	if orphan.Status != StatusGranted {
		t.Fatalf("orphan grant: %+v", orphan)
	}

	// Corrupt one of the still-missing cells' paths to prove a torn
	// file costs a recompute, never a poisoned merge.
	var tornName string
	for _, cell := range cells[2:] {
		tornName = cell.Name()
		break
	}
	tornPath := core.CellSnapshotPath(outDir, tornName)
	if err := os.MkdirAll(filepath.Dir(tornPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornPath, []byte("torn mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Incarnation #2 over the same OutDir.
	var warns []string
	spec.Warnf = func(format string, args ...any) {
		warns = append(warns, fmt.Sprintf(format, args...))
	}
	if cfg.Sweep, err = core.NewSweep(spec); err != nil {
		t.Fatal(err)
	}
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := c2.Snapshot()
	if prog.DoneCells != 2 || prog.ReusedCells != 2 {
		t.Fatalf("restart progress: done %d reused %d, want 2/2", prog.DoneCells, prog.ReusedCells)
	}
	tornWarned := false
	for _, w := range warns {
		if strings.Contains(w, tornName) {
			tornWarned = true
		}
	}
	if !tornWarned {
		t.Errorf("torn snapshot not warned about; warns: %q", warns)
	}

	// The replacement leases exactly the unrecovered cells and finishes.
	for {
		l := c2.Grant("w2")
		if l.Status != StatusGranted {
			if l.Status != StatusDone {
				t.Fatalf("replacement fleet stalled: %+v", l)
			}
			break
		}
		if _, err := c2.Complete(l.Cell, snapshotBytes(t, sweep, l.Cell), 0); err != nil {
			t.Fatalf("replacement delivery of cell %d: %v", l.Cell, err)
		}
	}
	select {
	case <-c2.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("restarted coordinator never reached done")
	}
	if err := c2.Err(); err != nil {
		t.Fatal(err)
	}

	requireIdentical(t, runLocal(t), c2.Result())

	// Recovered cells surface as cached in the assembled result, and
	// every persisted snapshot (including the rewritten torn one)
	// reloads cleanly.
	cachedN := 0
	for _, cr := range c2.Result().Cells {
		if cr.Cached {
			cachedN++
		}
	}
	if cachedN != 2 {
		t.Errorf("%d cells cached in restart result, want 2", cachedN)
	}
	for _, cell := range cells {
		if _, err := readSnapshot(core.CellSnapshotPath(outDir, cell.Name())); err != nil {
			t.Errorf("persisted snapshot for %s: %v", cell.Name(), err)
		}
	}
}

// TestCoordinatorQuarantineRedispatch: a worker that keeps delivering
// corrupt payloads while heartbeating loses its lease after the third
// consecutive rejection, the cell re-dispatches to a healthy worker,
// and the progress counters record the re-dispatch.
func TestCoordinatorQuarantineRedispatch(t *testing.T) {
	spec := core.SweepSpec{Datasets: []core.Dataset{core.RONnarrow}, Days: 0.02,
		BaseSeed: 7, Replicas: 1}
	sweep, err := core.NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	c, err := New(Config{Sweep: sweep, LeaseTTL: time.Minute, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}

	bad := c.Grant("bad")
	if bad.Status != StatusGranted {
		t.Fatalf("grant: %+v", bad)
	}
	for i := 0; i < quarantineRejects-1; i++ {
		if _, err := c.Complete(bad.Cell, []byte("garbage"), 0); err == nil {
			t.Fatal("garbage upload accepted")
		}
		// Below the threshold the lease holds: nothing else to grant.
		if l := c.Grant("good"); l.Status != StatusWait {
			t.Fatalf("cell re-dispatched after only %d rejections: %+v", i+1, l)
		}
	}
	if _, err := c.Complete(bad.Cell, []byte("garbage"), 0); err == nil {
		t.Fatal("garbage upload accepted")
	}
	// Threshold reached: the lease is revoked without any clock
	// movement, and the cell re-dispatches immediately.
	if _, err := c.Renew(bad.Lease); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("quarantined lease renewal = %v, want ErrUnknownLease", err)
	}
	good := c.Grant("good")
	if good.Status != StatusGranted || good.Cell != bad.Cell || good.Lease == bad.Lease {
		t.Fatalf("quarantined cell not re-dispatched: %+v", good)
	}
	prog := c.Snapshot()
	if prog.RedispatchedLeases != 1 || prog.ExpiredLeases != 0 {
		t.Errorf("redispatched/expired = %d/%d, want 1/0",
			prog.RedispatchedLeases, prog.ExpiredLeases)
	}

	// The healthy delivery completes the sweep; per-worker contact ages
	// come out sorted and consistent with the fake clock.
	clk.Advance(10 * time.Second)
	if _, err := c.Complete(good.Cell, snapshotBytes(t, sweep, good.Cell), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator not done after healthy delivery")
	}
	prog = c.Snapshot()
	if len(prog.Workers) != 2 || prog.Workers[0].Name != "bad" || prog.Workers[1].Name != "good" {
		t.Fatalf("workers = %+v, want [bad good]", prog.Workers)
	}
	for _, wp := range prog.Workers {
		if wp.SecondsSinceSeen != 10 {
			t.Errorf("worker %s seen %.1fs ago, want 10", wp.Name, wp.SecondsSinceSeen)
		}
	}
}

// TestFlakyProxyFleet drives two real workers through a reverse proxy
// that fails every third request with a 503: leases, renewals, and
// uploads all ride the transient-retry path, and the merged output is
// still byte-identical to a single-process run.
func TestFlakyProxyFleet(t *testing.T) {
	spec := fleetSpec()
	sweep, err := core.NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	c, err := New(Config{Sweep: sweep, LeaseTTL: 5 * time.Second, OutDir: outDir})
	if err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewServer(NewServer(c).Handler())
	defer backend.Close()

	target, err := url.Parse(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(target)
	var reqs, faults atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if reqs.Add(1)%3 == 0 {
			faults.Add(1)
			http.Error(w, "injected fault", http.StatusServiceUnavailable)
			return
		}
		rp.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	workers := []*Worker{
		NewWorker(flaky.URL, WithName("fw1")),
		NewWorker(flaky.URL, WithName("fw2"), WithDuplicateUploads()),
	}
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(t.Context())
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d through flaky proxy: %v", i, err)
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
	if faults.Load() == 0 {
		t.Fatal("proxy injected no faults; the test proved nothing")
	}
	requireIdentical(t, runLocal(t), c.Result())
}

// TestWorkerBackoffJitter pins the retry jitter: it stays inside
// [0.75d, 1.25d) and is deterministic per worker name.
func TestWorkerBackoffJitter(t *testing.T) {
	a1 := NewWorker("localhost:0", WithName("alpha"))
	a2 := NewWorker("localhost:0", WithName("alpha"))
	b := NewWorker("localhost:0", WithName("beta"))
	diverged := false
	for i := 0; i < 100; i++ {
		d := time.Second
		x, y, z := a1.jitter(d), a2.jitter(d), b.jitter(d)
		if x != y {
			t.Fatalf("same-name workers diverged at draw %d: %v vs %v", i, x, y)
		}
		if x < 750*time.Millisecond || x >= 1250*time.Millisecond {
			t.Fatalf("jitter draw %d out of range: %v", i, x)
		}
		if x != z {
			diverged = true
		}
	}
	if !diverged {
		t.Error("distinct worker names never diverged in 100 draws")
	}
}
