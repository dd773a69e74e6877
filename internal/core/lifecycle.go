package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/analysis"
	"repro/internal/resultstore"
)

// LifecycleConfig is what surrounds a sweep's cells once they finish:
// where they persist, which store takes their rows, and who is told.
type LifecycleConfig struct {
	// OutDir, when non-empty, is the sweep output directory: every cell
	// that lands without already being on disk there (Cached) persists a
	// snapshot under cells/<cell>/cell.snap before anything else
	// happens to it.
	OutDir string
	// Results, when non-nil, receives one row per landed cell and one
	// per merged group.
	Results *resultstore.Store
	// OnCell, when non-nil, receives every landed cell — failed ones
	// included — with its full Result, before the cell is folded into
	// its group. Calls are serialized, in landing order.
	OnCell func(CellResult)
	// Recycle, when non-nil, receives each aggregator the lifecycle
	// releases (see Land) instead of leaving it to the collector.
	Recycle func(*analysis.Aggregator)
}

// Lifecycle is the one implementation of "a cell has landed", shared by
// every sweep driver (Sweep.Run's worker pool, a fleet coordinator's
// uploads, its reuse and crash-recovery passes): persist the snapshot,
// notify, append the store row, fold the cell into its grid point's
// accumulator in replica order, and — once the cell is both folded and
// on disk — release its aggregator, so a persisted sweep holds one
// accumulator per group plus the few cells waiting for a predecessor,
// not every cell it ever ran. Land is safe for concurrent use; cells of
// different groups fold concurrently.
type Lifecycle struct {
	cfg    LifecycleConfig
	groups []groupFolder

	cellMu sync.Mutex // serializes OnCell

	// snapBuf is the snapshot encode buffer reused across cells.
	snapMu  sync.Mutex
	snapBuf []byte
}

// NewLifecycle builds the lifecycle for one run of the sweep. selected
// reports whether the cell at an expansion index is part of this run
// (its shard filter accepted it); a group with an unselected cell can
// never complete, so its cells are kept as they land and never folded.
func (s *Sweep) NewLifecycle(cfg LifecycleConfig, selected func(i int) bool) *Lifecycle {
	lc := &Lifecycle{cfg: cfg, groups: make([]groupFolder, len(s.groups))}
	for g, idxs := range s.groups {
		mergeable := true
		for _, i := range idxs {
			mergeable = mergeable && selected(i)
		}
		if mergeable {
			lc.groups[g].pending = make([]landed, len(idxs))
		}
	}
	return lc
}

// Land takes a finished cell through the rest of its life. wire, when
// non-nil, is the cell's already encoded snapshot container (a worker's
// upload), persisted verbatim in place of a fresh encode.
//
// Ownership: cr.Res — in particular its aggregator — is complete and
// untouched while OnCell runs. After that it belongs to the lifecycle:
// once the cell is folded into its group and a snapshot of it is on
// disk (the lifecycle just wrote it, or the cell is Cached and the run
// has an OutDir), cr.Res.Agg is set to nil and the aggregator handed to
// Recycle. Res itself stays, with its Config, Testbed, Methods and
// probe counters. Without an OutDir the in-memory result is the only
// copy and nothing is released.
//
// merged is non-nil when this cell completed its group. Persist, store
// and fold failures are all reported (joined), but none stops the later
// steps: a sweep finishes what it can and the error surfaces at the end.
func (lc *Lifecycle) Land(cr *CellResult, wire []byte) (merged *Result, err error) {
	if cr.Err != nil {
		// A failed campaign has nothing to persist or fold; its group
		// stays short of a cell and never merges.
		lc.notify(cr)
		return nil, nil
	}
	var errs []error
	onDisk := lc.cfg.OutDir != ""
	if onDisk && !cr.Cached {
		if err := lc.persist(cr, wire); err != nil {
			errs = append(errs, fmt.Errorf("core: persisting cell %s: %w", cr.Cell.Name(), err))
			onDisk = false
		}
	}
	lc.notify(cr)

	// The cell's row is extracted before the fold: folding flushes the
	// aggregator and may release it.
	if lc.cfg.Results != nil {
		if err := lc.cfg.Results.Append(CellStoreRow(cr.Cell, cr.Res)); err != nil {
			errs = append(errs, fmt.Errorf("core: result store: %w", err))
		}
	}
	merged, err = lc.groups[cr.Cell.Group].land(cr.Cell.Replica, cr.Res, onDisk, lc.cfg.Recycle)
	if err != nil {
		errs = append(errs, fmt.Errorf("core: merging group %s: %w", cr.Cell.GroupName(), err))
	}
	if merged != nil && lc.cfg.Results != nil {
		if err := lc.cfg.Results.Append(GroupStoreRow(cr.Cell, merged)); err != nil {
			errs = append(errs, fmt.Errorf("core: result store: %w", err))
		}
	}
	return merged, errors.Join(errs...)
}

// persist writes the cell's snapshot under OutDir: the wire bytes when
// the cell arrived encoded, a fresh encode otherwise.
func (lc *Lifecycle) persist(cr *CellResult, wire []byte) error {
	path := CellSnapshotPath(lc.cfg.OutDir, cr.Cell.Name())
	if wire != nil {
		return WriteSnapshotFile(path, wire)
	}
	lc.snapMu.Lock()
	defer lc.snapMu.Unlock()
	buf, err := NewCellSnapshot(cr.Cell, cr.Res).WriteFileBuf(path, lc.snapBuf)
	lc.snapBuf = buf
	return err
}

// notify calls OnCell, serialized.
func (lc *Lifecycle) notify(cr *CellResult) {
	if lc.cfg.OnCell == nil {
		return
	}
	lc.cellMu.Lock()
	lc.cfg.OnCell(*cr)
	lc.cellMu.Unlock()
}

// Merged returns group g's merged Result, or nil while the group is
// incomplete (cells outstanding, a cell outside this run's shard, or a
// failed fold).
func (lc *Lifecycle) Merged(g int) *Result { return lc.groups[g].merged() }

// groupFolder owns everything about turning one grid point's landed
// cells into its merged Result: whether the group can merge, which
// replicas have landed, the accumulator, the fold, and the release of
// folded cells. It folds the group's contiguous replica-order prefix as
// it advances — replica k is merged only after replicas 0..k-1 — so the
// accumulator sees exactly the operation sequence a post-drain serial
// merge would perform and the merged bytes are identical by
// construction, whatever order cells arrive in. An out-of-order arrival
// waits in pending only until its predecessors land.
type groupFolder struct {
	mu sync.Mutex
	// pending[k] holds replica k from landing until the fold passes it;
	// nil for a group that cannot merge.
	pending []landed
	// next is the fold frontier: replicas [0, next) are in acc.
	next int
	// acc accumulates the folded prefix and, once next reaches
	// len(pending), is the group's merged Result.
	acc *Result
}

// landed is one cell waiting in its group for the fold to reach it.
type landed struct {
	res    *Result
	onDisk bool
}

// land records replica k and advances the fold as far as the landed
// prefix allows, releasing each folded cell that is on disk (its
// aggregator detached and passed to recycle, when non-nil). It returns
// the merged Result when this landing completed the group.
func (g *groupFolder) land(k int, res *Result, onDisk bool, recycle func(*analysis.Aggregator)) (*Result, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pending == nil {
		return nil, nil
	}
	g.pending[k] = landed{res, onDisk}
	for g.next < len(g.pending) && g.pending[g.next].res != nil {
		c := g.pending[g.next]
		if g.acc == nil {
			g.acc = &Result{
				Config:  c.res.Config,
				Testbed: c.res.Testbed,
				Methods: c.res.Methods,
				Agg:     analysis.NewAggregator(c.res.Agg.Methods(), c.res.Testbed.N()),
			}
		}
		if err := g.acc.Agg.Merge(c.res.Agg); err != nil {
			// The group can no longer merge; what has landed is kept.
			g.pending = nil
			return nil, fmt.Errorf("core: merging replica %d: %w", g.next, err)
		}
		g.acc.RONProbes += c.res.RONProbes
		g.acc.MeasureProbes += c.res.MeasureProbes
		g.acc.RouteChanges += c.res.RouteChanges
		if c.onDisk {
			agg := c.res.Agg
			c.res.Agg = nil
			if recycle != nil {
				recycle(agg)
			}
		}
		g.pending[g.next] = landed{}
		g.next++
	}
	if g.next < len(g.pending) {
		return nil, nil
	}
	g.acc.MergedReplicas = g.next
	return g.acc, nil
}

// merged returns the group's merged Result once every replica is
// folded.
func (g *groupFolder) merged() *Result {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pending == nil || g.next < len(g.pending) {
		return nil
	}
	return g.acc
}

// MergeResults sums replicate campaign results into a fresh Result:
// probe counters added, aggregators merged in the given order
// (order-independent by Aggregator.Merge's contract). The merged
// Config is the first replica's. It is the fold every sweep driver runs
// per grid point — the results landed in order, none released —
// exported so merge-only tooling can rebuild merged tables from
// snapshot-restored replicas, byte-identical to a single-machine sweep.
func MergeResults(results []*Result) (*Result, error) {
	if len(results) == 0 {
		return nil, errors.New("core: MergeResults with no results")
	}
	g := groupFolder{pending: make([]landed, len(results))}
	var merged *Result
	for k, r := range results {
		var err error
		if merged, err = g.land(k, r, false, nil); err != nil {
			return nil, err
		}
	}
	return merged, nil
}
