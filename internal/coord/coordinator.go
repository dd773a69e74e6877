package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/resultstore"
)

// quarantineRejects is the consecutive-rejected-upload threshold at
// which a cell's current lease is revoked and the cell re-dispatched:
// a worker that keeps delivering corrupt payloads while dutifully
// heartbeating would otherwise hold its cell forever, since neither
// expiry nor completion ever frees it.
const quarantineRejects = 3

// leaseHold caps how long a lease request is held waiting for work. It
// sits below common proxy and load-balancer idle timeouts, so a held
// request is answered — with a bare wait, "ask again now" — before
// anything between worker and coordinator gives up on it.
const leaseHold = 25 * time.Second

// Config configures a Coordinator. Sweep is required; everything else
// has working defaults. The sweep spec's own hooks apply exactly as in
// a local run, because both go through core.SweepRun: Filter restricts
// the cells leased, Resume satisfies cells before serving starts,
// Progress sees every landed cell whole, before it is folded, and Warnf
// receives non-fatal notices.
type Config struct {
	// Sweep is the expanded grid to distribute.
	Sweep *core.Sweep
	// LeaseTTL is the cell lease lifetime (heartbeats renew it); <= 0
	// selects DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Now is the coordinator's clock; nil selects time.Now. Tests
	// inject a fake clock here to drive lease expiry deterministically.
	Now func() time.Time
	// OutDir, when non-empty, persists every delivered snapshot payload
	// verbatim under cells/<cell>/cell.snap — the same bytes and layout
	// a single-process sweep writes, so -merge-only and ronreport work
	// on a coordinator's output directory unchanged. The snapshot being
	// a second copy, a coordinator with an OutDir keeps a cell's
	// aggregator only until the cell is folded into its group, then
	// reuses it to decode a later upload; without one, every restored
	// aggregator is kept (see Result). Snapshots already under OutDir —
	// a crashed incarnation's — are reloaded at New as a resumed run
	// reloads its Resume directory, with no flag (see core.Sweep.Start).
	OutDir string
	// Results, when non-nil, receives one columnar row per completed
	// cell (first delivery, or reloaded from disk) and per merged
	// group. A restarted coordinator re-appends rows for reloaded
	// cells; the store's read side dedupes by row identity.
	Results *resultstore.Store
}

// Coordinator is the fleet service: a sweep run (core.SweepRun) whose
// runnable cells are dispatched through a lease queue. It leases cells
// to workers, validates and deduplicates delivered snapshots, and lands
// each first delivery in the run, which persists it, folds it into its
// grid point as it lands and — with an OutDir — releases its aggregator
// for the next upload's decode. It has no transport of its own — Server
// exposes it over HTTP, and tests drive it directly.
type Coordinator struct {
	cfg      Config
	sweep    *core.Sweep
	cells    []core.Cell
	manJSON  []byte
	run      *core.SweepRun
	queue    *LeaseQueue
	slotCell []int       // queue item → cell index
	cellSlot map[int]int // cell index → queue item
	now      func() time.Time

	mu      sync.Mutex
	rejects []int                // per cell: consecutive rejected uploads (quarantine)
	workers map[string]time.Time // worker → last contact
	told    map[string]bool      // worker → last answered done
	// dismiss is signalled at each done answer (see WaitFleet).
	dismiss chan struct{}

	// free holds aggregators the run released, for the next snapshot
	// decode to reuse. It has its own lock: releases happen inside the
	// run, under a group's fold lock.
	freeMu sync.Mutex
	free   []*analysis.Aggregator
}

// maxFreeAggregators bounds the free list. Decodes take one aggregator
// per upload and the fold gives one back per cell, so a handful covers
// any worker count; it only fills past that when a group's out-of-order
// window drains at once.
const maxFreeAggregators = 8

// New builds a coordinator over an expanded sweep: the full-grid
// manifest is serialized once, the run selects cells and reloads those
// already on disk (the spec's Resume directory and OutDir; fully
// satisfied groups merge immediately), and the lease queue is seeded
// with every remaining runnable cell.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Sweep == nil {
		return nil, errors.New("coord: Config.Sweep is required")
	}
	c := &Coordinator{
		cfg:      cfg,
		sweep:    cfg.Sweep,
		cells:    cfg.Sweep.Cells(),
		cellSlot: map[int]int{},
		now:      cfg.Now,
		workers:  map[string]time.Time{},
		told:     map[string]bool{},
		dismiss:  make(chan struct{}, 1),
	}
	if c.now == nil {
		c.now = time.Now
	}
	var err error
	if c.manJSON, err = json.Marshal(c.sweep.Manifest(nil, nil)); err != nil {
		return nil, err
	}
	c.rejects = make([]int, len(c.cells))
	run, runnable, err := c.sweep.Start(cfg.OutDir, true, cfg.Results, c.recycle)
	if err != nil {
		return nil, err
	}
	if err := run.Err(); err != nil {
		return nil, err
	}
	c.run = run
	c.queue = NewLeaseQueue(len(runnable), cfg.LeaseTTL, cfg.Now)
	c.slotCell = runnable
	for slot, i := range runnable {
		c.cellSlot[i] = slot
	}
	return c, nil
}

// recycle is the run's release hook: keep the aggregator for a
// later decode, up to the free list's bound.
func (c *Coordinator) recycle(agg *analysis.Aggregator) {
	if agg == nil {
		return
	}
	c.freeMu.Lock()
	if len(c.free) < maxFreeAggregators {
		c.free = append(c.free, agg)
	}
	c.freeMu.Unlock()
}

// admit runs the sweep's admission check (core.Sweep.AdmitCell) on an
// upload for cell i, decoding into a recycled aggregator when the free
// list has one; a rejected container gives it straight back.
func (c *Coordinator) admit(i int, container []byte) (*core.Result, error) {
	c.freeMu.Lock()
	var scratch *analysis.Aggregator
	if n := len(c.free); n > 0 {
		scratch, c.free = c.free[n-1], c.free[:n-1]
	}
	c.freeMu.Unlock()
	res, err := c.sweep.AdmitCell(i, container, scratch)
	if err != nil {
		c.recycle(scratch)
	}
	return res, err
}

func (c *Coordinator) warnf(format string, args ...any) {
	if warnf := c.sweep.Spec().Warnf; warnf != nil {
		warnf(format, args...)
	}
}

// ManifestJSON returns the serialized full-grid manifest served to
// workers.
func (c *Coordinator) ManifestJSON() []byte { return c.manJSON }

// Grant leases the next runnable cell to worker, without blocking.
func (c *Coordinator) Grant(worker string) LeaseResponse {
	l, st := c.queue.Grant(worker)
	c.mu.Lock()
	c.workers[worker] = c.now()
	c.told[worker] = st == Drained
	c.mu.Unlock()
	switch st {
	case Drained:
		select {
		case c.dismiss <- struct{}{}:
		default:
		}
		return LeaseResponse{Status: StatusDone}
	case Wait:
		return LeaseResponse{Status: StatusWait}
	}
	cell := c.cells[c.slotCell[l.Item]]
	return LeaseResponse{
		Status:    StatusGranted,
		Lease:     l.ID,
		Cell:      cell.Index,
		Name:      cell.Name(),
		Seed:      cell.Seed,
		TTLMillis: c.queue.TTL().Milliseconds(),
	}
}

// holdGrant is Grant held open while the queue says wait: it answers as
// soon as a cell can be granted or the sweep is done, waking on a
// completion (the last one drains the queue) or requeue and at the
// earliest live lease deadline. When ctx ends or leaseHold passes it
// answers whatever one more Grant says, a bare wait unless work just
// turned up.
func (c *Coordinator) holdGrant(ctx context.Context, worker string) LeaseResponse {
	hold := time.After(leaseHold)
	for {
		// Taken before Grant, so a change in between is not lost.
		changed, expiry := c.queue.Changed()
		if resp := c.Grant(worker); resp.Status != StatusWait {
			return resp
		}
		select {
		case <-changed:
		case <-time.After(expiry.Sub(c.now())):
		case <-ctx.Done():
			return c.Grant(worker)
		case <-hold:
			return c.Grant(worker)
		}
	}
}

// WaitFleet returns once every live worker — one heard from within the
// lease TTL — has been answered done, or when ctx ends. Called after
// Done, it keeps the coordinator serving until the fleet has heard that
// the sweep is over. A worker silent for longer is one the lease rule
// already treats as dead, so the wait is bounded by one TTL.
func (c *Coordinator) WaitFleet(ctx context.Context) {
	for {
		c.mu.Lock()
		now, last := c.now(), time.Time{}
		for name, at := range c.workers {
			if silent := at.Add(c.queue.TTL()); !c.told[name] && silent.After(last) {
				last = silent
			}
		}
		c.mu.Unlock()
		if !last.After(now) {
			return
		}
		select {
		case <-c.dismiss:
		case <-time.After(last.Sub(now)):
		case <-ctx.Done():
			return
		}
	}
}

// Renew heartbeats a lease.
func (c *Coordinator) Renew(id uint64) (RenewResponse, error) {
	l, err := c.queue.Renew(id)
	if err != nil {
		return RenewResponse{}, err
	}
	c.mu.Lock()
	c.workers[l.Worker] = c.now()
	c.mu.Unlock()
	return RenewResponse{TTLMillis: c.queue.TTL().Milliseconds()}, nil
}

// Complete accepts a finished cell's snapshot payload once admit has
// validated it. First delivery wins and lands in the run; any later
// delivery of the same cell validates, reports duplicate, and changes
// nothing — re-dispatched stragglers are expected, not errors. payload
// is not retained: it is persisted before Complete returns and the
// parsed snapshot copies what it keeps.
func (c *Coordinator) Complete(cellIdx int, payload []byte, wall time.Duration) (CompleteResponse, error) {
	if cellIdx < 0 || cellIdx >= len(c.cells) {
		return CompleteResponse{}, fmt.Errorf("coord: cell index %d out of range", cellIdx)
	}
	cell := c.cells[cellIdx]
	// A cell outside the queue and not skipped was reloaded from disk:
	// its result is already in hand, and a delivery is a duplicate
	// after validating it.
	slot, runnable := c.cellSlot[cellIdx]
	if filter := c.sweep.Spec().Filter; !runnable && filter != nil && !filter(cell) {
		return CompleteResponse{}, fmt.Errorf("coord: cell %s is outside this coordinator's shard", cell.Name())
	}
	res, err := c.admit(cellIdx, payload)
	if err != nil {
		c.noteReject(cellIdx, slot, runnable)
		return CompleteResponse{}, err
	}
	c.mu.Lock()
	c.rejects[cellIdx] = 0
	c.mu.Unlock()
	if !runnable || !c.queue.Complete(slot) {
		c.recycle(res.Agg)
		return CompleteResponse{Duplicate: true}, nil
	}
	// The delivery is accepted whatever landing reports: a persist,
	// store or fold failure is the coordinator's, sticky in Err.
	if err := c.run.Land(core.CellResult{Cell: cell, Res: res, Wall: wall}, payload); err != nil {
		c.warnf("cell %s: %v\n", cell.Name(), err)
	}
	return CompleteResponse{}, nil
}

// noteReject records one rejected upload for a runnable cell and, at
// quarantineRejects consecutive rejections, revokes whatever lease
// holds the cell and requeues it so a healthy worker can take over
// from the one delivering garbage. The counter resets on any accepted
// delivery and after each quarantine, so a reformed worker earns a
// fresh allowance.
func (c *Coordinator) noteReject(cellIdx, slot int, runnable bool) {
	if !runnable {
		return
	}
	c.mu.Lock()
	c.rejects[cellIdx]++
	n := c.rejects[cellIdx]
	if n >= quarantineRejects {
		c.rejects[cellIdx] = 0
	}
	c.mu.Unlock()
	if n < quarantineRejects {
		return
	}
	if c.queue.Requeue(slot) {
		c.warnf("cell %s: %d consecutive rejected uploads; revoking its lease for re-dispatch\n",
			c.cells[cellIdx].Name(), n)
	}
}

// Done returns a channel closed when the sweep is complete (all
// selected cells delivered, all complete groups merged).
func (c *Coordinator) Done() <-chan struct{} { return c.run.Done() }

// Err returns the first fatal error (a snapshot that failed to
// persist, a group that failed to merge), or nil.
func (c *Coordinator) Err() error { return c.run.Err() }

// Snapshot returns the live Progress view.
func (c *Coordinator) Snapshot() Progress {
	pending, leased, _ := c.queue.Counts()
	expired, redispatched := c.queue.Stats()
	selected, reused, done := c.run.Counts()
	p := Progress{
		TotalCells:         len(c.cells),
		SelectedCells:      selected,
		DoneCells:          done,
		LeasedCells:        leased,
		PendingCells:       pending,
		ReusedCells:        reused,
		ExpiredLeases:      expired,
		RedispatchedLeases: redispatched,
		Complete:           done == selected,
	}
	if c.cfg.Results != nil {
		p.StoredRows = c.cfg.Results.Rows()
	}
	now := c.now()
	c.mu.Lock()
	for name, seen := range c.workers {
		p.Workers = append(p.Workers, WorkerProgress{
			Name:             name,
			SecondsSinceSeen: now.Sub(seen).Seconds(),
		})
	}
	c.mu.Unlock()
	sort.Slice(p.Workers, func(i, j int) bool { return p.Workers[i].Name < p.Workers[j].Name })
	for g := 0; g < c.sweep.NumGroups(); g++ {
		idxs := c.sweep.GroupCells(g)
		landed, merged := c.run.Group(g)
		p.Groups = append(p.Groups, GroupProgress{
			Name:   c.cells[idxs[0]].GroupName(),
			Cells:  len(idxs),
			Done:   landed,
			Merged: merged != nil,
		})
	}
	return p
}

// Result assembles the completed sweep's SweepResult — the same shape
// Sweep.Run returns, assembled by the same run, so callers above the
// fleet (the experiment builder, ronsim's reporting path) are oblivious
// to whether cells ran locally or on a fleet. Its Parallel is the
// number of distinct workers that contacted the coordinator. With an
// OutDir, a cell's Res.Agg is nil (the snapshot under OutDir is the
// cell's statistics); without one, every Res still owns its restored
// aggregator.
func (c *Coordinator) Result() *core.SweepResult {
	c.mu.Lock()
	workers := len(c.workers)
	c.mu.Unlock()
	return c.run.Result(workers)
}
