// Package coord turns the sweep engine into a coordinator/worker fleet
// over HTTP. A coordinator is a core.SweepRun — the same run state a
// local sweep uses, which selects cells by the spec's Filter, reloads
// those already on disk, lands each finished cell and assembles
// the result — with a different dispatcher: it expands a manifest-v3
// grid once, hands out cell leases with heartbeat renewal and straggler
// re-dispatch, and CRC-validates finished CellSnapshot payloads
// idempotently before landing them. The output is byte-identical to a
// single-process sweep, because cell seeds derive from grid
// coordinates, snapshots round-trip aggregator state exactly, and a
// group folds in replica order whatever order its cells arrive in.
//
// A coordinator with an output directory holds groups, not cells: a
// delivered cell is on disk before it is acknowledged, so once folded
// its aggregator is reused to decode a later upload, and the assembled
// result's cells carry counters but no aggregator (see
// Coordinator.Result). Without an output directory every restored cell
// is kept, because nothing else holds it.
//
// The package is layered machbase-style: LeaseQueue is the pure lease
// state machine (injectable clock, no I/O), Coordinator is the service
// (the run, crash recovery, snapshot validation), Server is the HTTP
// listener wrapping the service with graceful shutdown, and Worker is
// the client loop a fleet machine runs.
package coord

import (
	"errors"
	"sync"
	"time"
)

// DefaultLeaseTTL is the lease lifetime used when a Coordinator's
// configuration does not override it. A worker heartbeats every TTL/3,
// so a lease only expires after several missed renewals.
const DefaultLeaseTTL = time.Minute

// Lease errors. ErrLeaseExpired also requeues the lease's item, so a
// worker receiving it knows the cell may already be running elsewhere.
var (
	ErrUnknownLease = errors.New("coord: unknown or revoked lease")
	ErrLeaseExpired = errors.New("coord: lease expired")
)

// itemState is one work item's position in the lease lifecycle.
type itemState uint8

const (
	itemPending itemState = iota // waiting for a worker
	itemLeased                   // granted, lease possibly expired but not yet revoked
	itemDone                     // completed (exactly once, by whoever delivered first)
)

// Lease is one granted work item: the item index, the holder, and the
// deadline by which the holder must renew or deliver.
type Lease struct {
	ID      uint64
	Item    int
	Worker  string
	Expires time.Time
}

// GrantStatus reports the outcome of a Grant call.
type GrantStatus int

const (
	// Granted: a lease was issued.
	Granted GrantStatus = iota
	// Wait: nothing is grantable right now, but live leases are still
	// outstanding; a completion, a requeue or an expiry may free work.
	Wait
	// Drained: every item is done; workers can exit.
	Drained
)

// LeaseQueue is the lease state machine over n work items: pending
// items are granted FIFO, leases are renewed by heartbeat, expired
// leases are revoked and their items re-dispatched to the next asking
// worker, and completion is idempotent — the first delivery wins, late
// or duplicate deliveries (an expired lease's straggler finishing
// anyway) are accepted and ignored. All methods are safe for
// concurrent use; time comes from the injected clock, so tests drive
// expiry deterministically with no wall-clock sleeps.
type LeaseQueue struct {
	mu     sync.Mutex
	now    func() time.Time
	ttl    time.Duration
	state  []itemState
	fifo   []int            // pending item indices, FIFO; may hold stale (non-pending) entries
	leases map[uint64]Lease // live (possibly expired, not yet revoked) leases by ID
	holder []uint64         // item → lease ID currently holding it (0 = none)
	ever   []bool           // item → has been leased at least once
	nextID uint64
	done   int
	// changed is closed, and replaced, at every completion and requeue
	// (see Changed).
	changed chan struct{}

	// Fleet-health counters (see Stats): leases revoked past their
	// deadline, and grants of items that had already been leased before
	// (straggler or quarantine re-dispatches).
	expired      int64
	redispatched int64
}

// NewLeaseQueue builds a queue over items 0..n-1. ttl <= 0 selects
// DefaultLeaseTTL; now == nil selects time.Now.
func NewLeaseQueue(n int, ttl time.Duration, now func() time.Time) *LeaseQueue {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if now == nil {
		now = time.Now
	}
	q := &LeaseQueue{
		now:     now,
		ttl:     ttl,
		state:   make([]itemState, n),
		fifo:    make([]int, 0, n),
		leases:  make(map[uint64]Lease),
		holder:  make([]uint64, n),
		ever:    make([]bool, n),
		changed: make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		q.fifo = append(q.fifo, i)
	}
	return q
}

// TTL returns the queue's lease lifetime.
func (q *LeaseQueue) TTL() time.Duration { return q.ttl }

// Grant issues a lease to worker: the oldest pending item, or — when
// none are pending — an item whose lease has expired, revoking the
// stale lease (straggler re-dispatch). With nothing grantable it
// returns Wait while work is in flight and Drained once every item is
// done.
func (q *LeaseQueue) Grant(worker string) (Lease, GrantStatus) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.fifo) > 0 {
		item := q.fifo[0]
		q.fifo = q.fifo[1:]
		if q.state[item] != itemPending {
			continue // completed or re-leased while queued
		}
		return q.grant(item, worker), Granted
	}
	// No pending items: revoke the expired lease over the lowest item
	// index, if any, and re-dispatch it. Lowest-index order keeps
	// re-dispatch deterministic under a fake clock.
	now := q.now()
	expired := -1
	for _, l := range q.leases {
		if l.Expires.After(now) {
			continue
		}
		if expired < 0 || l.Item < expired {
			expired = l.Item
		}
	}
	if expired >= 0 {
		delete(q.leases, q.holder[expired])
		q.expired++
		return q.grant(expired, worker), Granted
	}
	if q.done == len(q.state) {
		return Lease{}, Drained
	}
	return Lease{}, Wait
}

// grant records a lease on item; callers hold q.mu and guarantee the
// item is not done and not held by a live lease.
func (q *LeaseQueue) grant(item int, worker string) Lease {
	if q.ever[item] {
		q.redispatched++
	}
	q.ever[item] = true
	q.nextID++
	l := Lease{
		ID:      q.nextID,
		Item:    item,
		Worker:  worker,
		Expires: q.now().Add(q.ttl),
	}
	q.state[item] = itemLeased
	q.holder[item] = l.ID
	q.leases[l.ID] = l
	return l
}

// Renew extends a lease by the queue's TTL (heartbeat). Renewing a
// lease past its deadline fails with ErrLeaseExpired and requeues the
// item — expiry is a property of time, not of whether a re-dispatch
// happened to ask first — and a revoked or never-issued lease fails
// with ErrUnknownLease. Either error tells the worker its result may
// be recomputed elsewhere; it should still deliver (delivery is
// idempotent) but must not count on exclusivity.
func (q *LeaseQueue) Renew(id uint64) (Lease, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.leases[id]
	if !ok {
		return Lease{}, ErrUnknownLease
	}
	if !l.Expires.After(q.now()) {
		delete(q.leases, id)
		q.expired++
		if q.state[l.Item] == itemLeased && q.holder[l.Item] == id {
			q.state[l.Item] = itemPending
			q.holder[l.Item] = 0
			q.fifo = append(q.fifo, l.Item)
			q.notify()
		}
		return Lease{}, ErrLeaseExpired
	}
	l.Expires = q.now().Add(q.ttl)
	q.leases[id] = l
	return l, nil
}

// Complete marks an item done and releases whatever lease holds it.
// The first completion wins (first == true); duplicates — a straggler
// whose lease expired delivering after the re-dispatched copy, or a
// retried upload — return first == false and change nothing. Because
// cell results are deterministic functions of their coordinates, every
// delivery of an item carries identical bytes, which is what makes
// accept-and-ignore the correct duplicate policy.
func (q *LeaseQueue) Complete(item int) (first bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if item < 0 || item >= len(q.state) || q.state[item] == itemDone {
		return false
	}
	if id := q.holder[item]; id != 0 {
		delete(q.leases, id)
		q.holder[item] = 0
	}
	q.state[item] = itemDone
	q.done++
	q.notify()
	return true
}

// Requeue forcibly revokes whatever lease holds item and returns it to
// the back of the pending queue — the quarantine escape hatch for a
// cell whose current holder keeps delivering rejected payloads while
// dutifully heartbeating (expiry alone would never free it). It
// reports false for done or out-of-range items, which are left alone.
func (q *LeaseQueue) Requeue(item int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if item < 0 || item >= len(q.state) || q.state[item] == itemDone {
		return false
	}
	if id := q.holder[item]; id != 0 {
		delete(q.leases, id)
		q.holder[item] = 0
	}
	if q.state[item] == itemLeased {
		q.state[item] = itemPending
		q.fifo = append(q.fifo, item)
		q.notify()
	}
	return true
}

// notify wakes everyone waiting on Changed; callers hold q.mu.
func (q *LeaseQueue) notify() {
	close(q.changed)
	q.changed = make(chan struct{})
}

// Changed returns a channel closed at the next completion or requeue,
// and the earliest live lease deadline (zero with none): the events
// that can make an item grantable, or the queue drained. Take both
// before Grant, so a change in between is not missed; a lease granted
// in between expires no earlier than those already live.
func (q *LeaseQueue) Changed() (<-chan struct{}, time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var next time.Time
	for _, l := range q.leases {
		if next.IsZero() || l.Expires.Before(next) {
			next = l.Expires
		}
	}
	return q.changed, next
}

// Stats returns the fleet-health counters: leases revoked past their
// deadline (by the re-dispatch scan or a late renewal) and grants of
// items that had been leased before — each re-dispatch means some
// worker's work was, or will be, recomputed elsewhere.
func (q *LeaseQueue) Stats() (expired, redispatched int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.expired, q.redispatched
}

// Counts returns the queue's population by state: items waiting, items
// under a (possibly expired, not yet revoked) lease, and items done.
func (q *LeaseQueue) Counts() (pending, leased, done int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, s := range q.state {
		switch s {
		case itemPending:
			pending++
		case itemLeased:
			leased++
		}
	}
	return pending, leased, len(q.state) - pending - leased
}
