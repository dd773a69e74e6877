package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
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

// Config configures a Coordinator. Sweep is required; everything else
// has working defaults.
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
	// aggregator is kept (see Result).
	OutDir string
	// Filter, when non-nil, restricts the coordinator to the cells it
	// accepts (the -cells sharding contract): filtered-out cells are
	// never leased and their groups are left unmerged.
	Filter func(core.Cell) bool
	// Reuse, when non-nil, is consulted serially for each selected cell
	// before serving starts; returning a Result marks the cell done
	// without leasing it (the -resume contract). The Result is handed
	// over: with an OutDir it is taken to come from a snapshot and its
	// aggregator is released like any other cell's.
	Reuse func(core.Cell, core.Config) (*core.Result, bool)
	// OnCellDone, when non-nil, receives each first-delivered (or
	// reused, or recovered) cell with its full Result, before the cell
	// is folded — the place to consume a cell's aggregator. Calls are
	// serialized in completion order.
	OnCellDone func(core.CellResult)
	// OnGroupComplete, when non-nil, receives each grid point the
	// moment its last replica lands and its replicas merge; calls are
	// serialized in completion order.
	OnGroupComplete func(*core.GroupResult)
	// Results, when non-nil, receives one columnar row per completed
	// cell (first delivery, reused, or crash-recovered) and per merged
	// group. A restarted coordinator re-appends rows for recovered
	// cells; the store's read side dedupes by row identity.
	Results *resultstore.Store
	// Warnf receives non-fatal notices; nil discards them.
	Warnf func(format string, args ...any)
}

// Coordinator is the fleet service: it owns the expanded grid, leases
// cells to workers, validates and deduplicates delivered snapshots,
// and runs each first delivery through the sweep's cell lifecycle,
// which persists it, folds it into its grid point as it lands and —
// with an OutDir — releases its aggregator for the next upload's
// decode. It has no transport of its own — Server exposes it over HTTP,
// and tests drive it directly.
type Coordinator struct {
	cfg      Config
	sweep    *core.Sweep
	cells    []core.Cell
	manifest *core.SweepManifest
	manJSON  []byte
	queue    *LeaseQueue
	slotCell []int       // queue item → cell index
	cellSlot map[int]int // cell index → queue item
	now      func() time.Time
	start    time.Time
	life     *core.Lifecycle

	mu        sync.Mutex
	out       []core.CellResult // by cell index; Res set by the first delivery
	rejects   []int             // per cell: consecutive rejected uploads (quarantine)
	selected  int
	reused    int
	recovered int // cells restored from a crashed incarnation's OutDir
	doneCells int
	workers   map[string]time.Time // worker → last contact
	err       error

	// free holds aggregators the lifecycle released, for the next
	// snapshot decode to reuse. It has its own lock: releases happen
	// inside the lifecycle, under a group's fold lock.
	freeMu sync.Mutex
	free   []*analysis.Aggregator

	done     chan struct{}
	doneOnce sync.Once

	cbMu sync.Mutex // serializes OnGroupComplete
}

// maxFreeAggregators bounds the free list. Decodes take one aggregator
// per upload and the fold gives one back per cell, so a handful covers
// any worker count; it only fills past that when a group's out-of-order
// window drains at once.
const maxFreeAggregators = 8

// New builds a coordinator over an expanded sweep: the full-grid
// manifest is serialized once, reused and crash-recovered cells land
// serially (fully satisfied groups merge immediately), and the lease
// queue is seeded with every remaining runnable cell.
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
		done:     make(chan struct{}),
		start:    time.Now(),
	}
	if c.now == nil {
		c.now = time.Now
	}
	c.manifest = c.sweep.Manifest(nil, nil)
	var err error
	if c.manJSON, err = json.Marshal(c.manifest); err != nil {
		return nil, err
	}
	c.out = make([]core.CellResult, len(c.cells))
	c.rejects = make([]int, len(c.cells))
	for i, cell := range c.cells {
		c.out[i].Cell = cell
		if cfg.Filter != nil && !cfg.Filter(cell) {
			c.out[i].Skipped = true
			continue
		}
		c.selected++
	}
	if c.selected == 0 {
		return nil, errors.New("coord: cell filter selected no cells")
	}
	c.life = c.sweep.NewLifecycle(core.LifecycleConfig{
		OutDir:  cfg.OutDir,
		Results: cfg.Results,
		OnCell:  cfg.OnCellDone,
		Recycle: c.recycle,
	}, func(i int) bool { return !c.out[i].Skipped })

	// Reuse runs serially up front, exactly like Sweep.Run's expansion
	// pass, so the queue only ever holds cells that genuinely need a
	// worker. After the Reuse hook, OutDir is rescanned for snapshots a
	// previous coordinator incarnation persisted before crashing: every
	// delivery is written through to cells/ before it is acknowledged,
	// so whatever a dead coordinator had accepted is exactly what its
	// replacement finds on disk, and a restart resumes the sweep
	// mid-flight instead of recomputing it. Each such cell lands right
	// away — completion callback, store row (a restart re-appends rows
	// an earlier incarnation wrote, which the store's read-side identity
	// dedup absorbs), fold — so groups fully satisfied from snapshots
	// merge before the first worker connects, and the pass holds one
	// decoded cell at a time.
	var runnable []int
	for i, cell := range c.cells {
		if c.out[i].Skipped {
			continue
		}
		var res *core.Result
		if cfg.Reuse != nil {
			if r, ok := cfg.Reuse(cell, c.sweep.Config(i)); ok {
				res = r
				c.reused++
			}
		}
		if res == nil && cfg.OutDir != "" {
			if res = c.recoverCell(i); res != nil {
				c.recovered++
			}
		}
		if res == nil {
			runnable = append(runnable, i)
			continue
		}
		if err := c.land(core.CellResult{Cell: cell, Res: res, Cached: true}, nil); err != nil {
			return nil, err
		}
	}
	c.queue = NewLeaseQueue(len(runnable), cfg.LeaseTTL, cfg.Now)
	c.slotCell = runnable
	for slot, i := range runnable {
		c.cellSlot[i] = slot
	}
	c.mu.Lock()
	c.checkDoneLocked()
	c.mu.Unlock()
	return c, nil
}

// recycle is the lifecycle's release hook: keep the aggregator for a
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

// admit validates a snapshot container for cell i: CRC and structure by
// the container parse, the cell identity (name and coordinate-derived
// seed) against the grid point the index names, and the aggregator
// state by restoring it against the coordinator's own Config for that
// cell. The aggregator decodes into a recycled one when the free list
// has one; a rejected container gives it straight back.
func (c *Coordinator) admit(i int, container []byte) (*core.Result, error) {
	c.freeMu.Lock()
	var scratch *analysis.Aggregator
	if n := len(c.free); n > 0 {
		scratch, c.free = c.free[n-1], c.free[:n-1]
	}
	c.freeMu.Unlock()
	snap, err := core.ParseCellSnapshotInto(container, scratch)
	if err != nil {
		c.recycle(scratch)
		return nil, err
	}
	cell := c.cells[i]
	if snap.Name != cell.Name() || snap.Seed != cell.Seed {
		c.recycle(snap.Aggregator())
		return nil, fmt.Errorf("coord: snapshot is for %s seed %d, cell is %s seed %d",
			snap.Name, snap.Seed, cell.Name(), cell.Seed)
	}
	res, err := snap.Restore(c.sweep.Config(i))
	if err != nil {
		c.recycle(snap.Aggregator())
		return nil, err
	}
	return res, nil
}

// recoverCell attempts crash-restart recovery for one selected cell:
// read the snapshot a previous incarnation may have persisted under
// OutDir and admit it like an upload. Anything missing, torn, or
// mismatched means the cell is recomputed — a bad file on disk must
// cost a re-run, never poison the merge.
func (c *Coordinator) recoverCell(i int) *core.Result {
	name := c.cells[i].Name()
	data, err := os.ReadFile(core.CellSnapshotPath(c.cfg.OutDir, name))
	if err == nil {
		var res *core.Result
		if res, err = c.admit(i, data); err == nil {
			return res
		}
	}
	if !errors.Is(err, os.ErrNotExist) {
		c.warnf("cell %s: ignoring persisted snapshot (%v); recomputing\n", name, err)
	}
	return nil
}

// land runs a first-delivered, reused or recovered cell through the
// lifecycle — persist (wire is an upload's exact bytes), OnCellDone,
// store row, fold, release — and records it. A persist, store or fold
// failure is sticky in Err but never stops the sweep.
func (c *Coordinator) land(cr core.CellResult, wire []byte) error {
	merged, err := c.life.Land(&cr, wire)
	if err != nil {
		c.warnf("cell %s: %v\n", cr.Cell.Name(), err)
	}
	c.mu.Lock()
	if err != nil && c.err == nil {
		c.err = err
	}
	c.out[cr.Cell.Index] = cr
	if merged != nil && c.cfg.OnGroupComplete != nil {
		gr := c.groupResultLocked(cr.Cell.Group)
		// Release the state lock around the callback: it may render
		// tables or write figures, and must not block lease traffic.
		c.mu.Unlock()
		c.cbMu.Lock()
		c.cfg.OnGroupComplete(&gr)
		c.cbMu.Unlock()
		c.mu.Lock()
	}
	c.doneCells++
	c.checkDoneLocked()
	c.mu.Unlock()
	return err
}

func (c *Coordinator) warnf(format string, args ...any) {
	if c.cfg.Warnf != nil {
		c.cfg.Warnf(format, args...)
	}
}

// ManifestJSON returns the serialized full-grid manifest served to
// workers.
func (c *Coordinator) ManifestJSON() []byte { return c.manJSON }

// TTL returns the lease lifetime in force.
func (c *Coordinator) TTL() time.Duration { return c.queue.TTL() }

// Grant leases the next runnable cell to worker.
func (c *Coordinator) Grant(worker string) LeaseResponse {
	c.mu.Lock()
	c.workers[worker] = c.now()
	c.mu.Unlock()
	l, st := c.queue.Grant(worker)
	switch st {
	case Drained:
		return LeaseResponse{Status: StatusDone}
	case Wait:
		// Suggest re-asking well inside a TTL so an expiry is picked up
		// promptly without hammering the coordinator.
		return LeaseResponse{Status: StatusWait, RetryMillis: c.queue.TTL().Milliseconds()/4 + 1}
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
// validated it. First delivery wins and lands (see land); any later
// delivery of the same cell validates, reports duplicate, and changes
// nothing — re-dispatched stragglers are expected, not errors. payload
// is not retained: it is persisted before Complete returns and the
// parsed snapshot copies what it keeps.
func (c *Coordinator) Complete(cellIdx int, payload []byte, wall time.Duration) (CompleteResponse, error) {
	if cellIdx < 0 || cellIdx >= len(c.cells) {
		return CompleteResponse{}, fmt.Errorf("coord: cell index %d out of range", cellIdx)
	}
	cell := c.cells[cellIdx]
	// A cell outside the queue and not skipped was reused or recovered:
	// its result is already in hand, and a delivery is a duplicate
	// after validating it.
	slot, runnable := c.cellSlot[cellIdx]
	if !runnable && c.out[cellIdx].Skipped {
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
	// The delivery is accepted whatever land reports: a persist, store
	// or fold failure is the coordinator's, sticky in Err.
	c.land(core.CellResult{Cell: cell, Res: res, Wall: wall}, payload)
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

// checkDoneLocked closes the completion channel once every selected
// cell has landed — which, the fold being part of landing, is also when
// every complete group has merged.
func (c *Coordinator) checkDoneLocked() {
	if c.doneCells == c.selected {
		c.doneOnce.Do(func() { close(c.done) })
	}
}

// Done returns a channel closed when the sweep is complete (all
// selected cells delivered, all complete groups merged).
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Err returns the first fatal error (a snapshot that failed to
// persist, a group that failed to merge), or nil.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// groupResultLocked assembles group g's GroupResult over copies of its
// cells' results. Callers hold c.mu.
func (c *Coordinator) groupResultLocked(g int) core.GroupResult {
	idxs := c.sweep.GroupCells(g)
	first := c.cells[idxs[0]]
	mg := &c.manifest.Groups[g]
	gr := core.GroupResult{
		Dataset: first.Dataset,
		Axes:    first.Axes,
		Coords:  first.Coords,
		Hosts:   mg.Hosts,
		Methods: mg.Methods,
		Cells:   make([]*core.CellResult, len(idxs)),
		Merged:  c.life.Merged(g),
	}
	for k, i := range idxs {
		cr := c.out[i]
		gr.Cells[k] = &cr
	}
	return gr
}

// Snapshot returns the live Progress view.
func (c *Coordinator) Snapshot() Progress {
	pending, leased, _ := c.queue.Counts()
	expired, redispatched := c.queue.Stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	p := Progress{
		TotalCells:         len(c.cells),
		SelectedCells:      c.selected,
		DoneCells:          c.doneCells,
		LeasedCells:        leased,
		PendingCells:       pending,
		ReusedCells:        c.reused,
		RecoveredCells:     c.recovered,
		ExpiredLeases:      expired,
		RedispatchedLeases: redispatched,
		Complete:           c.doneCells == c.selected,
	}
	if c.cfg.Results != nil {
		p.StoredRows = c.cfg.Results.Rows()
	}
	now := c.now()
	for name, seen := range c.workers {
		p.Workers = append(p.Workers, WorkerProgress{
			Name:             name,
			SecondsSinceSeen: now.Sub(seen).Seconds(),
		})
	}
	sort.Slice(p.Workers, func(i, j int) bool { return p.Workers[i].Name < p.Workers[j].Name })
	for g := 0; g < c.sweep.NumGroups(); g++ {
		idxs := c.sweep.GroupCells(g)
		gp := GroupProgress{
			Name:   c.cells[idxs[0]].GroupName(),
			Cells:  len(idxs),
			Merged: c.life.Merged(g) != nil,
		}
		for _, i := range idxs {
			if c.out[i].Res != nil {
				gp.Done++
			}
		}
		p.Groups = append(p.Groups, gp)
	}
	return p
}

// Result assembles the completed sweep's SweepResult — the same shape
// Sweep.Run returns, so callers above the fleet (the experiment
// builder, ronsim's reporting path) are oblivious to whether cells ran
// locally or on a fleet. Groups carry their merged Result. Cells carry
// what the lifecycle left of theirs: with an OutDir, Res holds the
// cell's Config, Testbed, Methods and probe counters and Res.Agg is nil
// (the snapshot under OutDir is the cell's statistics); without one,
// every Res still owns its restored aggregator.
func (c *Coordinator) Result() *core.SweepResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := &core.SweepResult{
		Spec:     c.sweep.Spec(),
		Datasets: c.sweep.Datasets(),
		Axes:     c.sweep.Axes(),
		Replicas: c.sweep.Replicas(),
		Cells:    append([]core.CellResult(nil), c.out...),
		Groups:   make([]core.GroupResult, c.sweep.NumGroups()),
		Wall:     time.Since(c.start),
		Parallel: len(c.workers),
		Selected: c.selected,
		Reused:   c.reused,
	}
	for g := range out.Groups {
		gr := c.groupResultLocked(g)
		// Point the group's cell results at the slice above so the two
		// views alias one store, as Sweep.Run's result does.
		for k, i := range c.sweep.GroupCells(g) {
			gr.Cells[k] = &out.Cells[i]
		}
		out.Groups[g] = gr
	}
	return out
}
