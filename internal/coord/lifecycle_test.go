package coord

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestCompleteHandlerBadBodies drives /complete with uploads a worker
// should never send — a declared length over the bound, an undeclared
// one that runs over it, nothing at all, garbage, a truncated snapshot,
// a valid snapshot with a negative or overflowing wall time — at a
// runnable (leased) cell and at a reused one. Oversize bodies and bad
// wall times are refused (413, 400) before they reach the coordinator;
// the rest are 400s that count toward quarantine for the runnable cell
// only. After each, the cell's valid upload is still accepted.
func TestCompleteHandlerBadBodies(t *testing.T) {
	const reusedCell, runnableCell = 0, 1
	spec := fleetSpec()
	spec.Resume = t.TempDir()
	sweep, err := core.NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	valid := map[int][]byte{
		reusedCell:   snapshotBytes(t, sweep, reusedCell),
		runnableCell: snapshotBytes(t, sweep, runnableCell),
	}
	// The reused cell's snapshot is the prior run every coordinator
	// below reloads.
	if err := core.WriteSnapshotFile(core.CellSnapshotPath(spec.Resume, sweep.Cells()[reusedCell].Name()), valid[reusedCell]); err != nil {
		t.Fatal(err)
	}
	bound := int64(len(valid[runnableCell]) + 4096)

	type body struct {
		r      io.Reader
		length int64 // declared Content-Length; -1 sends chunked
	}
	cases := []struct {
		name     string
		wall     string // the wall query parameter; "" sends 5
		body     func(valid []byte) body
		status   int
		rejected bool // reaches Complete and is refused there
	}{
		{"declared oversize", "", func([]byte) body {
			// The handler must refuse on the header alone: the body
			// behind it is a few bytes.
			return body{bytes.NewReader([]byte("tiny")), bound + 1}
		}, http.StatusRequestEntityTooLarge, false},
		{"chunked oversize", "", func([]byte) body {
			return body{io.LimitReader(zeroReader{}, bound+1), -1}
		}, http.StatusRequestEntityTooLarge, false},
		{"zero length", "", func([]byte) body {
			return body{http.NoBody, 0}
		}, http.StatusBadRequest, true},
		{"garbage", "", func([]byte) body {
			g := bytes.Repeat([]byte("garbage "), 64)
			return body{bytes.NewReader(g), int64(len(g))}
		}, http.StatusBadRequest, true},
		{"truncated", "", func(v []byte) body {
			return body{bytes.NewReader(v[:len(v)/2]), int64(len(v) / 2)}
		}, http.StatusBadRequest, true},
		{"truncated, chunked", "", func(v []byte) body {
			return body{bytes.NewReader(v[:len(v)/2]), -1}
		}, http.StatusBadRequest, true},
		{"negative wall", "-5", func(v []byte) body {
			return body{bytes.NewReader(v), int64(len(v))}
		}, http.StatusBadRequest, false},
		{"overflowing wall", "9300000000000", func(v []byte) body {
			return body{bytes.NewReader(v), int64(len(v))}
		}, http.StatusBadRequest, false},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{Sweep: sweep, LeaseTTL: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(c)
			srv.maxBody = bound
			post := func(cell int, wall string, b body) int {
				if wall == "" {
					wall = "5"
				}
				req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("%s?cell=%d&wall=%s", PathComplete, cell, wall), b.r)
				req.ContentLength = b.length
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, req)
				return rec.Code
			}
			lease := c.Grant("w")
			if lease.Status != StatusGranted || lease.Cell != runnableCell {
				t.Fatalf("first grant: %+v, want cell %d", lease, runnableCell)
			}

			// Up to the quarantine threshold, each refused body is one
			// reject against the runnable cell and none against the
			// reused one; the lease survives until the last.
			for n := 1; n <= quarantineRejects; n++ {
				for _, cell := range []int{reusedCell, runnableCell} {
					if got := post(cell, tc.wall, tc.body(valid[cell])); got != tc.status {
						t.Fatalf("cell %d, attempt %d: status %d, want %d", cell, n, got, tc.status)
					}
				}
				want := 0
				if tc.rejected {
					want = n % quarantineRejects // the threshold resets the count
				}
				c.mu.Lock()
				runnableRejects, reusedRejects := c.rejects[runnableCell], c.rejects[reusedCell]
				c.mu.Unlock()
				if runnableRejects != want || reusedRejects != 0 {
					t.Fatalf("after %d bad uploads: rejects runnable/reused = %d/%d, want %d/0",
						n, runnableRejects, reusedRejects, want)
				}
				_, renewErr := c.Renew(lease.Lease)
				if revoked := renewErr != nil; revoked != (tc.rejected && n == quarantineRejects) {
					t.Fatalf("after %d bad uploads: lease revoked = %v (%v)", n, revoked, renewErr)
				}
			}
			// The good uploads still land: a first delivery for the
			// runnable cell, a validated duplicate for the reused one.
			for _, cell := range []int{runnableCell, reusedCell} {
				v := valid[cell]
				if got := post(cell, "", body{bytes.NewReader(v), int64(len(v))}); got != http.StatusOK {
					t.Fatalf("valid upload of cell %d after %q: status %d", cell, tc.name, got)
				}
			}
			if prog := c.Snapshot(); prog.DoneCells != 2 {
				t.Errorf("done cells = %d, want 2 (one reused, one delivered)", prog.DoneCells)
			}
		})
	}
}

// zeroReader is an endless stream of zero bytes.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// drainSpec is one grid point × 64 replicas of the larger testbed:
// every upload has the same shape, so a drain reaches the steady state
// the retention and allocation claims are about.
func drainSpec() core.SweepSpec {
	return core.SweepSpec{
		Datasets: []core.Dataset{core.RON2003},
		Days:     0.004,
		BaseSeed: 23,
		Replicas: 64,
	}
}

// drain runs a fleet of two workers against c over httptest until each
// is answered done.
func drain(t *testing.T, c *Coordinator, opts ...WorkerOption) {
	t.Helper()
	ts := httptest.NewServer(NewServer(c).Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := NewWorker(ts.URL, append([]WorkerOption{WithName(fmt.Sprintf("w%d", i))}, opts...)...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	wg.Wait()
	select {
	case <-c.Done():
	default:
		t.Fatal("workers exited before the coordinator was done")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// mergedBytes encodes every merged group's aggregator.
func mergedBytes(t *testing.T, res *core.SweepResult) [][]byte {
	t.Helper()
	var out [][]byte
	for gi := range res.Groups {
		g := &res.Groups[gi]
		if !g.Complete() {
			t.Fatalf("group %s not merged", g.Name())
		}
		b, err := g.Merged.Agg.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestFleetDrainRetention is the coordinator's memory contract over a
// 64-replica drain. With an OutDir every cell comes back as a Result
// with its counters and no aggregator, and the steady-state cost of a
// cell — everything the process allocates: campaign, encode, HTTP,
// decode, persist, fold — stays under a byte budget an order of
// magnitude below what retaining, re-reading and re-allocating per cell
// costs. Without an OutDir every aggregator is kept. Duplicate
// deliveries and a crash-restart over the same OutDir leave the merged
// bytes unchanged.
func TestFleetDrainRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("drains a 64-cell grid four times")
	}
	newSweep := func(progress func(core.CellResult)) *core.Sweep {
		spec := drainSpec()
		spec.Progress = progress
		s, err := core.NewSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// No OutDir: the in-memory results are the only copy.
	kept, err := New(Config{Sweep: newSweep(nil), LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, kept)
	keptRes := kept.Result()
	for i := range keptRes.Cells {
		if cr := &keptRes.Cells[i]; cr.Res == nil || cr.Res.Agg == nil {
			t.Fatalf("cell %s: a coordinator without an OutDir dropped its aggregator", cr.Cell.Name())
		}
	}
	want := mergedBytes(t, keptRes)

	// OutDir: released after the fold, within a per-cell byte budget
	// measured over the last 32 cells.
	const budgetBytesPerCell = 512 << 10
	outDir := t.TempDir()
	var done atomic.Int64
	var ms runtime.MemStats
	var halfway uint64
	c, err := New(Config{
		Sweep: newSweep(func(cr core.CellResult) {
			if cr.Res == nil || cr.Res.Agg == nil {
				t.Errorf("cell %s: Progress did not see the full result", cr.Cell.Name())
			}
			if done.Add(1) == 32 {
				runtime.ReadMemStats(&ms)
				halfway = ms.TotalAlloc
			}
		}),
		LeaseTTL: time.Minute,
		OutDir:   outDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, c)
	runtime.ReadMemStats(&ms)
	if perCell := (ms.TotalAlloc - halfway) / 32; perCell > budgetBytesPerCell {
		t.Errorf("steady state allocates %d kB per cell, budget %d kB", perCell>>10, budgetBytesPerCell>>10)
	} else {
		t.Logf("steady state: %d kB allocated per cell", perCell>>10)
	}
	res := c.Result()
	for i := range res.Cells {
		cr := &res.Cells[i]
		if cr.Res == nil || cr.Res.Agg != nil {
			t.Fatalf("cell %s: want a Result without an aggregator, got %+v", cr.Cell.Name(), cr.Res)
		}
		snap, err := readSnapshot(core.CellSnapshotPath(outDir, cr.Cell.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if cr.Res.MeasureProbes != snap.MeasureProbes || cr.Res.RONProbes != snap.RONProbes ||
			cr.Res.RouteChanges != snap.RouteChanges || cr.Res.Testbed.N() != snap.Hosts ||
			len(cr.Res.Methods) != len(snap.Methods) || cr.Res.Config.Seed != snap.Seed {
			t.Errorf("cell %s: released Result disagrees with its snapshot", cr.Cell.Name())
		}
	}
	check := func(label string, res *core.SweepResult) {
		t.Helper()
		for g, b := range mergedBytes(t, res) {
			if !bytes.Equal(b, want[g]) {
				t.Errorf("%s: group %d merged bytes differ from the retained drain's", label, g)
			}
		}
	}
	check("OutDir drain", res)

	// Every snapshot delivered twice: the second copy decodes into a
	// recycled aggregator, validates, and must change nothing.
	dup, err := New(Config{Sweep: newSweep(nil), LeaseTTL: time.Minute, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, dup, WithDuplicateUploads())
	check("duplicate uploads", dup.Result())

	// Crash-restart: a coordinator that accepted the first 40 cells is
	// abandoned; its replacement recovers them from OutDir through the
	// same fold-and-release path and the fleet finishes the rest.
	crashDir := t.TempDir()
	sweep := newSweep(nil)
	first, err := New(Config{Sweep: sweep, LeaseTTL: time.Minute, OutDir: crashDir})
	if err != nil {
		t.Fatal(err)
	}
	arena := core.NewArena()
	var payload []byte
	for i := 0; i < 40; i++ {
		l := first.Grant("doomed")
		if l.Status != StatusGranted {
			t.Fatalf("grant %d: %+v", i, l)
		}
		r, err := arena.Run(sweep.Config(l.Cell))
		if err != nil {
			t.Fatal(err)
		}
		if payload, err = core.NewCellSnapshot(sweep.Cells()[l.Cell], r).AppendContainer(payload[:0]); err != nil {
			t.Fatal(err)
		}
		if _, err := first.Complete(l.Cell, payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	second, err := New(Config{Sweep: sweep, LeaseTTL: time.Minute, OutDir: crashDir})
	if err != nil {
		t.Fatal(err)
	}
	if prog := second.Snapshot(); prog.ReusedCells != 40 {
		t.Fatalf("restart reloaded %d cells, want 40", prog.ReusedCells)
	}
	drain(t, second)
	restarted := second.Result()
	check("crash-restart", restarted)
	for i := range restarted.Cells {
		if cr := &restarted.Cells[i]; cr.Res == nil || cr.Res.Agg != nil {
			t.Fatalf("cell %s after restart: want a Result without an aggregator", cr.Cell.Name())
		}
	}
}
