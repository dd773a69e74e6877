package core

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/resultstore"
)

// SweepRun is one execution of a sweep, the part both dispatchers share:
// Sweep.Run computes the runnable cells over a worker pool, a fleet
// coordinator hands them out through a lease queue, and everything
// around the computation is here, written once. Start selects cells by
// the spec's Filter and reloads what it can from snapshots on disk;
// Land is the one implementation of "a cell has landed" — persist the
// snapshot, notify the spec's Progress hook, append the store row, fold
// the cell into its grid point's accumulator in replica order, and,
// once the cell is both folded and on disk, release its aggregator, so
// a persisted sweep holds one accumulator per group plus the few cells
// waiting for a predecessor, not every cell it ever ran; Result
// assembles the SweepResult. Every method is safe for concurrent use;
// cells of different groups fold concurrently.
type SweepRun struct {
	sweep   *Sweep
	outDir  string
	results *resultstore.Store
	recycle func(*analysis.Aggregator)
	start   time.Time
	groups  []groupFolder

	progressMu sync.Mutex // serializes the spec's Progress hook

	// snapBuf is the snapshot encode buffer reused across cells.
	snapMu  sync.Mutex
	snapBuf []byte

	mu                       sync.Mutex
	cells                    []CellResult // by expansion index
	selected, reused, landed int
	err                      error         // first land failure
	done                     chan struct{} // closed once every selected cell has landed
}

// Start begins a run of the sweep. It marks the cells the spec's Filter
// rejects Skipped, and fails when the filter selects none. It then
// reloads, serially in expansion order, every selected cell whose
// snapshot under the spec's Resume directory — or, when recoverOut is
// set, under outDir — passes the cell's admission check, and lands it
// as Cached (see reload). It returns the indices of the cells left to
// compute, in expansion order, for the caller to dispatch and Land.
//
// outDir, when non-empty, is the sweep output directory: every cell
// that lands without already being on disk there (a Cached cell
// reloaded from it) persists a snapshot under cells/<cell>/cell.snap
// before anything else happens to it. recoverOut is a coordinator's crash recovery, which needs no
// flag: every delivery was on disk before it was acknowledged, so what
// a dead incarnation accepted is what its replacement reloads. It is
// also the offline passes' whole read (ronsim -merge-only, ronreport
// -reindex): a run that dispatches none of the cells left over and
// reads Result as it stands. results,
// when non-nil, receives one row per landed cell and one per merged
// group. recycle, when non-nil, receives each aggregator the run
// releases (see Land) instead of leaving it to the collector.
func (s *Sweep) Start(outDir string, recoverOut bool, results *resultstore.Store, recycle func(*analysis.Aggregator)) (*SweepRun, []int, error) {
	r := &SweepRun{
		sweep:   s,
		outDir:  outDir,
		results: results,
		recycle: recycle,
		start:   time.Now(),
		groups:  make([]groupFolder, len(s.groups)),
		cells:   make([]CellResult, len(s.cells)),
		done:    make(chan struct{}),
	}
	for i, c := range s.cells {
		r.cells[i].Cell = c
		if s.spec.Filter != nil && !s.spec.Filter(c) {
			r.cells[i].Skipped = true
			continue
		}
		r.selected++
	}
	if r.selected == 0 {
		return nil, nil, errors.New("core: sweep cell filter selected no cells")
	}
	// A group with an unselected cell can never complete, so its cells
	// are kept as they land and never folded.
	for g, idxs := range s.groups {
		mergeable := true
		for _, i := range idxs {
			mergeable = mergeable && !r.cells[i].Skipped
		}
		if mergeable {
			r.groups[g].pending = make([]landed, len(idxs))
		}
	}
	dirs := []string{s.spec.Resume}
	if recoverOut && (s.spec.Resume == "" || filepath.Clean(outDir) != filepath.Clean(s.spec.Resume)) {
		dirs = append(dirs, outDir)
	}
	var runnable []int
	for i := range s.cells {
		if !r.cells[i].Skipped && !r.reload(i, dirs) {
			runnable = append(runnable, i)
		}
	}
	return r, runnable, nil
}

// reload is the one place a file on disk satisfies a cell of a run:
// the cell's snapshot in the first of dirs (empty entries skipped) that
// ReadCell admits lands as Cached at once, so the pass holds
// one decoded cell at a time. A snapshot taken from a directory other
// than the output directory lands with the bytes just read as its wire
// form, so the output directory ends up holding every cell its
// manifest names. An absent file is silent; any other
// failure warns once, naming the file, and leaves the cell runnable — a
// bad file costs a recompute, never a poisoned merge.
func (r *SweepRun) reload(i int, dirs []string) bool {
	s := r.sweep
	c := s.cells[i]
	for _, dir := range dirs {
		if dir == "" {
			continue
		}
		res, data, err := s.readCell(i, dir)
		if err == nil {
			var wire []byte
			if r.outDir != "" && filepath.Clean(dir) != filepath.Clean(r.outDir) {
				wire = data
			}
			r.reused++
			r.Land(CellResult{Cell: c, Res: res, Cached: true}, wire)
			return true
		}
		if !errors.Is(err, fs.ErrNotExist) {
			s.warnf("cell %s: ignoring unusable snapshot: %v\n", c.Name(), err)
		}
	}
	return false
}

// Land takes a finished cell through the rest of its life and records
// it as the run's result for that cell. wire, when non-nil, is the
// cell's already encoded snapshot container (a worker's upload, or a
// Cached cell read from outside the output directory), persisted
// verbatim in place of a fresh encode.
//
// Ownership: cr.Res — in particular its aggregator — is complete and
// untouched while the Progress hook runs. After that it belongs to the
// run: once the cell is folded into its group and a snapshot of it is
// on disk (the run just wrote it, or the cell is Cached and the run has
// an output directory), cr.Res.Agg is set to nil and the aggregator
// handed to recycle. Res itself stays, with its Config, Testbed,
// Methods and probe counters. Without an output directory the in-memory
// result is the only copy and nothing is released.
//
// Persist, store and fold failures are all reported (joined), and the
// first is sticky in Err, but none stops the later steps: a sweep
// finishes what it can and the error surfaces at the end.
func (r *SweepRun) Land(cr CellResult, wire []byte) error {
	err := r.land(&cr, wire)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells[cr.Cell.Index] = cr
	if err != nil && r.err == nil {
		r.err = err
	}
	if r.landed++; r.landed == r.selected {
		close(r.done)
	}
	return err
}

func (r *SweepRun) land(cr *CellResult, wire []byte) error {
	if cr.Err != nil {
		// A failed campaign has nothing to persist or fold; its group
		// stays short of a cell and never merges.
		r.notify(cr)
		return nil
	}
	var errs []error
	onDisk := r.outDir != ""
	if onDisk && (!cr.Cached || wire != nil) {
		if err := r.persist(cr, wire); err != nil {
			errs = append(errs, fmt.Errorf("core: persisting cell %s: %w", cr.Cell.Name(), err))
			onDisk = false
		}
	}
	r.notify(cr)

	// The cell's row is extracted before the fold: folding flushes the
	// aggregator and may release it.
	if r.results != nil {
		if err := r.results.Append(CellStoreRow(cr.Cell, cr.Res)); err != nil {
			errs = append(errs, fmt.Errorf("core: result store: %w", err))
		}
	}
	merged, err := r.groups[cr.Cell.Group].land(cr.Cell.Replica, cr.Res, onDisk, r.recycle)
	if err != nil {
		errs = append(errs, fmt.Errorf("core: merging group %s: %w", cr.Cell.GroupName(), err))
	}
	if merged != nil && r.results != nil {
		if err := r.results.Append(GroupStoreRow(cr.Cell, merged)); err != nil {
			errs = append(errs, fmt.Errorf("core: result store: %w", err))
		}
	}
	return errors.Join(errs...)
}

// persist writes the cell's snapshot under the output directory: the
// wire bytes when the cell arrived encoded, a fresh encode otherwise.
func (r *SweepRun) persist(cr *CellResult, wire []byte) error {
	path := CellSnapshotPath(r.outDir, cr.Cell.Name())
	if wire != nil {
		return WriteSnapshotFile(path, wire)
	}
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	buf, err := NewCellSnapshot(cr.Cell, cr.Res).WriteFileBuf(path, r.snapBuf)
	r.snapBuf = buf
	return err
}

// notify calls the spec's Progress hook, serialized.
func (r *SweepRun) notify(cr *CellResult) {
	progress := r.sweep.spec.Progress
	if progress == nil {
		return
	}
	r.progressMu.Lock()
	progress(*cr)
	r.progressMu.Unlock()
}

// Done returns a channel closed once every selected cell has landed —
// which, the fold being part of landing, is also when every complete
// group has merged.
func (r *SweepRun) Done() <-chan struct{} { return r.done }

// Err returns the run's failure: every failed cell's error, joined, or
// else the first persist, store or fold failure; nil when there is
// none.
func (r *SweepRun) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var errs []error
	for i := range r.cells {
		if err := r.cells[i].Err; err != nil {
			errs = append(errs, fmt.Errorf("cell %s: %w", r.cells[i].Cell.Name(), err))
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	return r.err
}

// Counts returns how many cells the run selected, how many of those
// were reloaded from disk, and how many have landed.
func (r *SweepRun) Counts() (selected, reused, landed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.selected, r.reused, r.landed
}

// Group returns how many of group g's cells have landed with a result,
// and the group's merged Result — nil while the group is incomplete
// (cells outstanding, a cell outside this run's shard, or a failed
// fold).
func (r *SweepRun) Group(g int) (landed int, merged *Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, i := range r.sweep.groups[g] {
		if r.cells[i].Res != nil {
			landed++
		}
	}
	return landed, r.groups[g].merged()
}

// Result assembles the run's SweepResult from what has landed so far;
// parallel is the worker count it reports. Groups carry their merged
// Result. Cells carry what Land left of theirs: with an output
// directory, Res holds the cell's Config, Testbed, Methods and probe
// counters and Res.Agg is nil (the snapshot on disk is the cell's
// statistics); without one, every Res still owns its aggregator.
func (r *SweepRun) Result(parallel int) *SweepResult {
	s := r.sweep
	r.mu.Lock()
	defer r.mu.Unlock()
	out := &SweepResult{
		Spec:     s.spec,
		Datasets: s.Datasets(),
		Axes:     s.Axes(),
		Replicas: s.replicas,
		Cells:    append([]CellResult(nil), r.cells...),
		Groups:   make([]GroupResult, len(s.groups)),
		Parallel: parallel,
		Selected: r.selected,
		Reused:   r.reused,
	}
	for g, idxs := range s.groups {
		cells := make([]*CellResult, len(idxs))
		for k, i := range idxs {
			cells[k] = &out.Cells[i]
		}
		first := cells[0].Cell
		hosts, methods := s.groupShape(g)
		out.Groups[g] = GroupResult{
			Dataset: first.Dataset,
			Axes:    first.Axes,
			Coords:  first.Coords,
			Hosts:   hosts,
			Methods: methods,
			Cells:   cells,
			Merged:  r.groups[g].merged(),
		}
	}
	out.Wall = time.Since(r.start)
	return out
}

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
// exported for readers that merge what a run never would: a partial
// grid point, replicas rebuilt from traces, or a subset of store rows
// (ronreport -sweep and -drill).
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
