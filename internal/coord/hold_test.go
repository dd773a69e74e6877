package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// oneCellSweep is a one-cell grid: a held request has exactly one cell
// to wait for.
func oneCellSweep(t *testing.T) *core.Sweep {
	t.Helper()
	s, err := core.NewSweep(core.SweepSpec{Datasets: []core.Dataset{core.RONnarrow}, Days: 0.02, BaseSeed: 7, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// heldLease POSTs a lease request from its own goroutine and delivers
// the answer, once c has seen the request: from then on the request is
// held, and any change that can answer it wakes it.
func heldLease(t *testing.T, c *Coordinator, base, worker string) <-chan LeaseResponse {
	t.Helper()
	out := make(chan LeaseResponse, 1)
	go func() {
		body, _ := json.Marshal(LeaseRequest{Worker: worker})
		resp, err := http.Post(base+PathLease, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			close(out)
			return
		}
		defer resp.Body.Close()
		var lr LeaseResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Error(err)
		}
		out <- lr
	}()
	for {
		c.mu.Lock()
		_, seen := c.workers[worker]
		c.mu.Unlock()
		if seen {
			return out
		}
		time.Sleep(time.Millisecond)
	}
}

// answer waits for a held request's answer, well inside leaseHold so
// that only the event under test can have released it.
func answer(t *testing.T, held <-chan LeaseResponse) LeaseResponse {
	t.Helper()
	select {
	case lr := <-held:
		return lr
	case <-time.After(leaseHold / 2):
		t.Fatal("held lease request not answered")
		return LeaseResponse{}
	}
}

// TestLeaseHold: a /lease request that finds nothing grantable is held,
// not answered wait, and each event that can end the wait answers it —
// an expiry and a quarantine requeue with the freed cell, the drain with
// done, and Server.Shutdown at once with a bare wait.
func TestLeaseHold(t *testing.T) {
	sweep := oneCellSweep(t)
	newCoord := func(ttl time.Duration) *Coordinator {
		c, err := New(Config{Sweep: sweep, LeaseTTL: ttl})
		if err != nil {
			t.Fatal(err)
		}
		if l := c.Grant("holder"); l.Status != StatusGranted {
			t.Fatalf("first grant: %+v", l)
		}
		return c
	}
	serve := func(c *Coordinator) string {
		ts := httptest.NewServer(NewServer(c).Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}

	t.Run("expiry", func(t *testing.T) {
		c := newCoord(200 * time.Millisecond)
		if l := answer(t, heldLease(t, c, serve(c), "w")); l.Status != StatusGranted || l.Cell != 0 {
			t.Fatalf("after the holder's lease expired: %+v, want cell 0 granted", l)
		}
	})
	t.Run("requeue", func(t *testing.T) {
		c := newCoord(time.Minute)
		held := heldLease(t, c, serve(c), "w")
		for i := 0; i < quarantineRejects; i++ {
			if _, err := c.Complete(0, []byte("garbage"), 0); err == nil {
				t.Fatal("garbage upload accepted")
			}
		}
		if l := answer(t, held); l.Status != StatusGranted || l.Cell != 0 {
			t.Fatalf("after the quarantine requeue: %+v, want cell 0 granted", l)
		}
	})
	t.Run("drain", func(t *testing.T) {
		c := newCoord(time.Minute)
		held := heldLease(t, c, serve(c), "w")
		if _, err := c.Complete(0, snapshotBytes(t, sweep, 0), 0); err != nil {
			t.Fatal(err)
		}
		if l := answer(t, held); l.Status != StatusDone {
			t.Fatalf("after the last cell landed: %+v, want done", l)
		}
	})
	t.Run("shutdown", func(t *testing.T) {
		c := newCoord(time.Minute)
		srv := NewServer(c)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		held := heldLease(t, c, "http://"+ln.Addr().String(), "w")
		ctx, cancel := context.WithTimeout(context.Background(), leaseHold/2)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown with a held request: %v", err)
		}
		if l := answer(t, held); l.Status != StatusWait {
			t.Fatalf("held request on shutdown: %+v, want a bare wait", l)
		}
		if err := <-served; err != http.ErrServerClosed {
			t.Fatalf("Serve: %v", err)
		}
	})
}

// TestWaitFleet: after the sweep is done, the coordinator waits for a
// worker heard from within the lease TTL until it is answered done, and
// not for one silent longer, whom the lease rule already counts dead.
func TestWaitFleet(t *testing.T) {
	sweep := oneCellSweep(t)
	clk := newFakeClock()
	c, err := New(Config{Sweep: sweep, LeaseTTL: time.Minute, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if l := c.Grant("silent"); l.Status != StatusGranted {
		t.Fatalf("grant: %+v", l)
	}
	clk.Advance(2 * time.Minute)
	l := c.Grant("live")
	if l.Status != StatusGranted {
		t.Fatalf("re-dispatch: %+v", l)
	}
	if _, err := c.Complete(l.Cell, snapshotBytes(t, sweep, l.Cell), 0); err != nil {
		t.Fatal(err)
	}
	<-c.Done()

	// The fake clock stands still, so only the live worker's done
	// answer can end the wait before ctx does.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c.WaitFleet(ctx)
	if ctx.Err() == nil {
		t.Fatal("WaitFleet returned before the live worker was answered done")
	}

	returned := make(chan struct{})
	go func() {
		c.WaitFleet(context.Background())
		close(returned)
	}()
	if l := c.Grant("live"); l.Status != StatusDone {
		t.Fatalf("live worker after the drain: %+v, want done", l)
	}
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("WaitFleet still waiting after the live worker was answered done: the silent one is dead by the lease rule")
	}
}

// TestWorkerExitLines: a worker logs "fault injection" only when the
// BeforeUpload hook vetoes its upload. One whose upload finds the
// coordinator gone says so instead.
func TestWorkerExitLines(t *testing.T) {
	for _, tc := range []struct {
		name      string
		veto      bool
		want, not string
	}{
		{"veto", true, "(fault injection)", "coordinator gone"},
		{"coordinator gone at upload", false, "coordinator gone", "fault injection"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{Sweep: oneCellSweep(t), LeaseTTL: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(NewServer(c).Handler())
			defer ts.Close()
			var mu sync.Mutex
			var log strings.Builder
			w := NewWorker(ts.URL, WithName("w"),
				WithLogf(func(format string, args ...any) {
					mu.Lock()
					defer mu.Unlock()
					fmt.Fprintf(&log, format, args...)
				}),
				WithBeforeUpload(func(core.Cell) bool {
					if !tc.veto {
						ts.Close()
					}
					return !tc.veto
				}))
			w.attempts = 1 // a coordinator gone is gone at the first try
			if err := w.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if got := log.String(); !strings.Contains(got, tc.want) || strings.Contains(got, tc.not) {
				t.Errorf("worker log lacks %q or has %q:\n%s", tc.want, tc.not, got)
			}
		})
	}
}
