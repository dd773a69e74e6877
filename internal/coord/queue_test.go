package coord

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock: lease expiry in these tests is
// driven entirely by Advance, never by wall-clock sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestLeaseGrantOrder: pending items grant FIFO, each with a distinct
// lease, then Wait while leases are live, Drained after completion.
func TestLeaseGrantOrder(t *testing.T) {
	clk := newFakeClock()
	q := NewLeaseQueue(3, time.Minute, clk.Now)
	var leases []Lease
	for i := 0; i < 3; i++ {
		l, st := q.Grant("w1")
		if st != Granted || l.Item != i {
			t.Fatalf("grant %d: status %v item %d", i, st, l.Item)
		}
		leases = append(leases, l)
	}
	if _, st := q.Grant("w2"); st != Wait {
		t.Errorf("exhausted queue with live leases granted status %v, want Wait", st)
	}
	for _, l := range leases {
		if !q.Complete(l.Item) {
			t.Errorf("first completion of item %d not accepted", l.Item)
		}
	}
	if _, st := q.Grant("w2"); st != Drained {
		t.Errorf("completed queue granted status %v, want Drained", st)
	}
	if _, _, done := q.Counts(); done != 3 {
		t.Errorf("queue with all items complete counts %d done, want 3", done)
	}
}

// TestLeaseHeartbeatRenewal: renewals inside the TTL keep a lease
// alive indefinitely; the moment renewals stop, the lease expires TTL
// later and the item re-dispatches.
func TestLeaseHeartbeatRenewal(t *testing.T) {
	clk := newFakeClock()
	q := NewLeaseQueue(1, time.Minute, clk.Now)
	l, st := q.Grant("w1")
	if st != Granted {
		t.Fatalf("grant status %v", st)
	}
	// Ten renewals at 40s intervals: each inside the 60s TTL, total
	// far beyond it — the lease must survive on heartbeats alone.
	for i := 0; i < 10; i++ {
		clk.Advance(40 * time.Second)
		nl, err := q.Renew(l.ID)
		if err != nil {
			t.Fatalf("renewal %d failed: %v", i, err)
		}
		if want := clk.Now().Add(time.Minute); !nl.Expires.Equal(want) {
			t.Fatalf("renewal %d expires %v, want %v", i, nl.Expires, want)
		}
	}
	// No one else can steal the item while the lease is live.
	if _, st := q.Grant("w2"); st != Wait {
		t.Errorf("live lease re-granted, status %v", st)
	}
	// Stop heartbeating: one TTL later the next Grant re-dispatches.
	clk.Advance(61 * time.Second)
	nl, st := q.Grant("w2")
	if st != Granted || nl.Item != l.Item || nl.Worker != "w2" {
		t.Fatalf("expired lease not re-dispatched: status %v, lease %+v", st, nl)
	}
	if nl.ID == l.ID {
		t.Error("re-dispatch reused the revoked lease ID")
	}
	// The dead worker's heartbeat now fails: its lease was revoked.
	if _, err := q.Renew(l.ID); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("renewing a revoked lease = %v, want ErrUnknownLease", err)
	}
}

// TestLeaseExpiryRequeuesOnRenew: a late heartbeat on a lease nobody
// re-dispatched yet fails with ErrLeaseExpired and requeues the item —
// expiry is a property of time, not of re-dispatch having raced first.
func TestLeaseExpiryRequeuesOnRenew(t *testing.T) {
	clk := newFakeClock()
	q := NewLeaseQueue(1, time.Minute, clk.Now)
	l, _ := q.Grant("w1")
	clk.Advance(2 * time.Minute)
	if _, err := q.Renew(l.ID); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("late renewal = %v, want ErrLeaseExpired", err)
	}
	// The item went back to pending: the next Grant takes the FIFO
	// path, not the expired-lease scan.
	nl, st := q.Grant("w2")
	if st != Granted || nl.Item != 0 {
		t.Fatalf("requeued item not re-granted: status %v, lease %+v", st, nl)
	}
	pending, leased, done := q.Counts()
	if pending != 0 || leased != 1 || done != 0 {
		t.Errorf("counts = %d/%d/%d, want 0/1/0", pending, leased, done)
	}
}

// TestLeaseDuplicateCompletionIdempotent: the full straggler story.
// w1's lease expires mid-cell, w2 re-runs and delivers; w1 then
// delivers the same deterministic result late. The first delivery
// wins, the duplicate is accepted and ignored, and the queue drains
// having counted the item exactly once.
func TestLeaseDuplicateCompletionIdempotent(t *testing.T) {
	clk := newFakeClock()
	q := NewLeaseQueue(2, time.Minute, clk.Now)
	l1, _ := q.Grant("w1")
	l2, _ := q.Grant("w2")
	// w1 goes silent; its lease expires and w3 picks up the item.
	clk.Advance(2 * time.Minute)
	l3, st := q.Grant("w3")
	if st != Granted || l3.Item != l1.Item {
		t.Fatalf("straggler re-dispatch: status %v, lease %+v", st, l3)
	}
	if first := q.Complete(l3.Item); !first {
		t.Error("re-dispatched delivery not counted as first")
	}
	// w1 finally finishes the cell it computed under the dead lease.
	if first := q.Complete(l1.Item); first {
		t.Error("duplicate delivery counted as first")
	}
	// w2's lease also sat past expiry (the clock moved for everyone),
	// but completion is still accepted — deterministic bytes are
	// deterministic regardless of lease state.
	if first := q.Complete(l2.Item); !first {
		t.Error("delivery after expiry (no re-dispatch) not accepted")
	}
	if _, st := q.Grant("w4"); st != Drained {
		t.Errorf("drained queue granted status %v", st)
	}
	pending, leased, done := q.Counts()
	if pending != 0 || leased != 0 || done != 2 {
		t.Errorf("counts = %d/%d/%d, want 0/0/2", pending, leased, done)
	}
}

// TestLeaseCompleteWithoutLease: an item completed before any lease
// was granted for it never grants.
func TestLeaseCompleteWithoutLease(t *testing.T) {
	clk := newFakeClock()
	q := NewLeaseQueue(2, time.Minute, clk.Now)
	if !q.Complete(0) {
		t.Fatal("Complete(0) not accepted")
	}
	if q.Complete(0) {
		t.Error("second Complete(0) accepted")
	}
	l, st := q.Grant("w1")
	if st != Granted || l.Item != 1 {
		t.Fatalf("grant after Complete(0): status %v item %d, want item 1", st, l.Item)
	}
	q.Complete(1)
	if _, st := q.Grant("w2"); st != Drained {
		t.Errorf("queue not drained after two completions: grant status %v", st)
	}
	// Out-of-range completions are rejected, not panics.
	if q.Complete(-1) || q.Complete(2) {
		t.Error("out-of-range completion accepted")
	}
}

// TestLeaseConcurrentGrants: many goroutines grabbing, renewing, and
// completing concurrently must partition the items exactly — run under
// -race this doubles as the queue's race check.
func TestLeaseConcurrentGrants(t *testing.T) {
	const items, workers = 64, 8
	q := NewLeaseQueue(items, time.Minute, nil)
	var mu sync.Mutex
	got := map[int]int{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				l, st := q.Grant("w")
				switch st {
				case Drained:
					return
				case Wait:
					continue
				}
				if _, err := q.Renew(l.ID); err != nil {
					t.Errorf("renew: %v", err)
				}
				if first := q.Complete(l.Item); first {
					mu.Lock()
					got[l.Item]++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if len(got) != items {
		t.Fatalf("completed %d distinct items, want %d", len(got), items)
	}
	for item, n := range got {
		if n != 1 {
			t.Errorf("item %d first-completed %d times", item, n)
		}
	}
}
