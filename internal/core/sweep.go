package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/resultstore"
)

// SweepSpec describes a grid of campaigns: the cross product of
// datasets × grid axes, each point run Replicas times under derived
// seeds. Replicates of one grid point merge into one set of tables, so
// a sweep answers "how do the paper's tables move under these knobs"
// with per-point error bars hidden behind larger samples.
type SweepSpec struct {
	// Datasets to sweep; empty means {RON2003}.
	Datasets []Dataset
	// Days is the virtual length of every cell; <=0 selects the
	// DefaultConfig length.
	Days float64
	// BaseSeed seeds the sweep. Per-cell seeds are derived from it and
	// the cell coordinates (not from scheduling), so results do not
	// depend on worker count or completion order.
	BaseSeed uint64
	// Replicas is the number of seed-varied replicates per grid point;
	// 0 means 1, and a negative count is refused.
	Replicas int
	// Axes are the grid's value axes. The four standard axes (profile,
	// hysteresis, probeinterval, losswindow) are always part of the
	// grid in canonical order — an entry here overrides that axis's
	// value list, and any other axis appends after them in the order
	// given. Nil sweeps a single default-configured point per dataset.
	Axes []Axis
	// Workload, when non-nil, is every cell's base application-traffic
	// configuration, applied before the grid axes so workload axes
	// (redundancy, paths, streams) refine it per cell. Nil leaves the
	// workload layer off except where an axis enables it.
	Workload *WorkloadConfig
	// Parallel caps concurrently running cells; <=0 means
	// runtime.GOMAXPROCS(0).
	Parallel int
	// Filter, when non-nil, restricts a run (Sweep.Run, or a fleet
	// coordinator's) to the cells it accepts, so disjoint shards of one
	// grid can run on different machines against the same spec. Filtered-out cells appear in the results as
	// Skipped, and their groups are left unmerged (Merged == nil);
	// merge-only tooling recombines shards afterwards. Filter does not
	// affect expansion: every cell keeps its coordinates and seed.
	Filter func(Cell) bool
	// Resume, when non-empty, is a sweep output directory whose cell
	// snapshots satisfy cells before any is dispatched: a selected cell
	// whose cells/<cell>/cell.snap there passes the cell's admission
	// check (Sweep.AdmitCell) lands Cached instead of running (see
	// Sweep.Start). It is how -resume reuses a killed or smaller run's
	// cells.
	Resume string
	// Configure, when non-nil, is applied to each cell's Config after
	// the dataset defaults, axis values, and seed. It runs serially
	// during expansion (NewSweep), so it may capture shared state
	// without locking — e.g. to install per-cell trace sinks.
	Configure func(Cell, *Config)
	// Progress, when non-nil, receives each finished cell, with its full
	// Result (see CellResult.Res for what a persisting sweep keeps
	// afterwards). Calls are serialized but arrive in completion order,
	// which varies with Parallel.
	Progress func(CellResult)
	// Results, when non-nil, receives one columnar row per completed
	// cell (including cached ones) and per merged group, appended as
	// they land. Append order varies with scheduling; the store's
	// read side orders and dedupes by row identity.
	Results *resultstore.Store
	// OutDir, when non-empty, is the sweep output directory: every cell
	// Run computes persists a checksummed snapshot under
	// cells/<cell>/cell.snap the moment it finishes (reused cells
	// already have theirs), so a killed run keeps everything it
	// completed — and, since the snapshot is then a second copy, Run
	// keeps each cell's aggregator only until the cell is folded into
	// its group (see CellResult.Res).
	OutDir string
	// Warnf, when non-nil, receives non-fatal notices: a snapshot on
	// disk that could not satisfy its cell, and a fleet coordinator's
	// landing failures and quarantined leases. Nil discards them.
	Warnf func(format string, args ...any)
}

// Cell is one point of an expanded sweep grid: a dataset, one value
// per grid axis, and a replica ordinal, with the campaign seed derived
// from those coordinates.
type Cell struct {
	// Index is the cell's position in expansion order: datasets
	// outermost, then the grid axes in order, replicas innermost.
	Index int
	// Group indexes the cell's merge group; replicas of one grid point
	// share a group.
	Group int
	// Dataset selects the cell's measurement campaign (Table 3).
	Dataset Dataset
	// Axes is the grid's normalized axis list, shared by every cell of
	// the sweep; Coords holds this cell's value per axis, same order.
	Axes   []Axis
	Coords []AxisValue
	// Replica is the replicate ordinal within the group.
	Replica int
	// Seed is the derived campaign seed.
	Seed uint64
}

// AxisValues returns the cell's non-default coordinates as an axis
// name → canonical value map (nil when every axis is at its default) —
// the generic identity snapshots and manifests persist.
func (c Cell) AxisValues() map[string]string {
	return axisValuesByName(c.Axes, c.Coords)
}

// GroupName labels the cell's grid point (dataset plus every
// non-default axis label, in grid order), usable as a directory name.
func (c Cell) GroupName() string {
	name := strings.ToLower(c.Dataset.String())
	for i, a := range c.Axes {
		name += a.Label(c.Coords[i])
	}
	return name
}

// Name labels the cell itself: the group name plus the replica ordinal.
func (c Cell) Name() string {
	return fmt.Sprintf("%s-r%02d", c.GroupName(), c.Replica)
}

// CellResult is the outcome of one cell campaign.
type CellResult struct {
	Cell Cell
	// Res is the cell's campaign result; nil when the cell was Skipped.
	// The sweep's Progress callback sees it whole. In a finished
	// SweepResult, Res keeps its Config, Testbed, Methods and probe
	// counters, but Res.Agg is nil when the sweep persisted snapshots
	// (an output directory was set): the aggregator was released once
	// the cell was on disk and folded into its group, and
	// Sweep.ReadCell brings it back. A sweep with no output directory
	// keeps every aggregator, because there the Result is the only copy.
	Res *Result
	// Wall is the cell's wall-clock duration (zero for skipped or
	// cached cells).
	Wall time.Duration
	Err  error
	// Skipped marks a cell excluded by the sweep's Filter; Res is nil.
	Skipped bool
	// Cached marks a cell whose Res came from a snapshot on disk (the
	// spec's Resume directory, or a restarted coordinator's output
	// directory) rather than a fresh campaign.
	Cached bool
}

// GroupResult combines one grid point's replicas.
type GroupResult struct {
	// Dataset plus one value per grid axis (Axes/Coords, shared with
	// the group's cells) are the grid point's coordinates.
	Dataset Dataset
	Axes    []Axis
	Coords  []AxisValue
	// Hosts and Methods describe the grid point's testbed size and
	// method names; unlike Merged they are populated even when the
	// group is incomplete.
	Hosts   int
	Methods []string
	// Cells are the group's replicate results in replica order,
	// including skipped ones (nil Res) under a sharding Filter.
	Cells []*CellResult
	// Merged sums the replicas: probe counters added, aggregators
	// merged in replica order (order-independent by Aggregator.Merge's
	// contract). Its Config is the first replica's. Merged is nil when
	// any replica was skipped by the sweep's Filter; merge-only tooling
	// completes such groups later from persisted snapshots.
	Merged *Result
}

// Name labels the grid point.
func (g *GroupResult) Name() string { return g.Cells[0].Cell.GroupName() }

// Complete reports whether every replica ran (or was reused), i.e.
// whether Merged is populated.
func (g *GroupResult) Complete() bool { return g.Merged != nil }

// SweepResult is the outcome of a whole sweep.
type SweepResult struct {
	// Spec is the spec the sweep was expanded from.
	Spec SweepSpec
	// Datasets, Axes, and Replicas are the normalized grid dimensions
	// actually expanded (defaults resolved, standard axes pinned) —
	// what the manifest records.
	Datasets []Dataset
	Axes     []Axis
	Replicas int
	// Cells holds every cell result in expansion order.
	Cells []CellResult
	// Groups holds the merged grid points in expansion order.
	Groups []GroupResult
	// Wall is the whole sweep's wall-clock duration.
	Wall time.Duration
	// Parallel is the worker count actually used (0 when every
	// selected cell was reused).
	Parallel int
	// Selected counts cells accepted by the Filter (all cells when
	// there is none); Reused counts those reloaded from disk (Cached).
	Selected, Reused int
}

// Sweep is an expanded, validated sweep ready to run. Build with
// NewSweep; the grid (including derived seeds) is fixed at expansion
// time, so Cells can be inspected — or persisted — before Run.
type Sweep struct {
	spec     SweepSpec
	datasets []Dataset
	axes     []Axis
	replicas int
	cells    []Cell
	cfgs     []Config
	// groups[g] lists the cell indices of group g in replica order.
	groups [][]int
}

// splitmix64 is the SplitMix64 finalizer, the standard way to turn
// correlated integers into decorrelated seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// deriveSeed mixes the base seed with cell coordinates. Using the
// coordinates — not the flat cell index — means a cell keeps its seed
// when the grid grows along another axis. (Adding a whole new axis
// appends a coordinate and re-seeds the grid; growing an existing
// axis's value list does not.)
func deriveSeed(base uint64, parts ...uint64) uint64 {
	x := splitmix64(base)
	for _, p := range parts {
		x = splitmix64(x ^ p)
	}
	return x
}

// NewSweep expands and validates a spec. Every cell's Config is built
// (axis values applied, Configure hook run) here, serially, in
// expansion order: datasets outermost, then each grid axis in
// normalized order, replicas innermost.
func NewSweep(spec SweepSpec) (*Sweep, error) {
	datasets := spec.Datasets
	if len(datasets) == 0 {
		datasets = []Dataset{RON2003}
	}
	axes, err := normalizeAxes(spec.Axes)
	if err != nil {
		return nil, err
	}
	values := make([][]AxisValue, len(axes))
	combos := 1
	for i, a := range axes {
		values[i] = a.Values()
		combos *= len(values[i])
	}
	replicas := spec.Replicas
	if replicas < 0 {
		return nil, fmt.Errorf("core: sweep Replicas = %d, want >= 0 (0 means 1)", replicas)
	}
	replicas = max(replicas, 1)
	s := &Sweep{spec: spec, datasets: datasets, axes: axes, replicas: replicas}
	// Cell names double as output paths (trace files, figure dirs), so
	// duplicate grid points — duplicated axis values, colliding profile
	// names, duplicated datasets — must be rejected rather than
	// silently overwriting each other's artifacts.
	seen := make(map[string]struct{})
	coordIdx := make([]int, len(axes))
	seedParts := make([]uint64, 0, len(axes)+2)
	for di, d := range datasets {
		for combo := 0; combo < combos; combo++ {
			// Row-major odometer: the first axis varies slowest, the
			// last fastest — the same nesting the fixed-field loops had.
			c := combo
			for i := len(axes) - 1; i >= 0; i-- {
				coordIdx[i] = c % len(values[i])
				c /= len(values[i])
			}
			coords := make([]AxisValue, len(axes))
			for i := range axes {
				coords[i] = values[i][coordIdx[i]]
			}
			group := len(s.groups)
			s.groups = append(s.groups, nil)
			for r := 0; r < replicas; r++ {
				seedParts = seedParts[:0]
				seedParts = append(seedParts, uint64(di))
				for _, idx := range coordIdx {
					seedParts = append(seedParts, uint64(idx))
				}
				seedParts = append(seedParts, uint64(r))
				cell := Cell{
					Index:   len(s.cells),
					Group:   group,
					Dataset: d,
					Axes:    axes,
					Coords:  coords,
					Replica: r,
					Seed:    deriveSeed(spec.BaseSeed, seedParts...),
				}
				if _, dup := seen[cell.Name()]; dup {
					return nil, fmt.Errorf("core: sweep grid point %s duplicated (repeated axis value?)", cell.GroupName())
				}
				seen[cell.Name()] = struct{}{}
				cfg := DefaultConfig(d, spec.Days)
				cfg.Seed = cell.Seed
				if spec.Workload != nil {
					cfg.Workload = *spec.Workload
				}
				for i, a := range axes {
					if err := a.Apply(coords[i], &cfg); err != nil {
						return nil, fmt.Errorf("core: sweep cell %s: %w", cell.Name(), err)
					}
				}
				if spec.Configure != nil {
					spec.Configure(cell, &cfg)
				}
				if err := cfg.Validate(); err != nil {
					return nil, fmt.Errorf("core: sweep cell %s: %w", cell.Name(), err)
				}
				s.groups[group] = append(s.groups[group], cell.Index)
				s.cells = append(s.cells, cell)
				s.cfgs = append(s.cfgs, cfg)
			}
		}
	}
	return s, nil
}

// Cells returns the expanded grid in expansion order.
func (s *Sweep) Cells() []Cell { return append([]Cell(nil), s.cells...) }

// Axes returns the normalized grid axes (standard axes pinned first,
// custom axes after) the sweep expanded over.
func (s *Sweep) Axes() []Axis { return append([]Axis(nil), s.axes...) }

// Datasets returns the normalized dataset list.
func (s *Sweep) Datasets() []Dataset { return append([]Dataset(nil), s.datasets...) }

// Spec returns the spec the sweep was expanded from.
func (s *Sweep) Spec() SweepSpec { return s.spec }

// Config returns the fully built Config of the cell at expansion index
// i — dataset defaults, axis values, derived seed, and the Configure
// hook already applied: the grid point AdmitCell holds a snapshot to.
func (s *Sweep) Config(i int) Config { return s.cfgs[i] }

// EmptyResult returns a Result for cell i that no campaign produced:
// the cell's Config, testbed and methods, an empty aggregator of that
// shape, and no run counters. ronreport -sweep replays the probe trace
// of a cell without a usable snapshot into its aggregator.
func (s *Sweep) EmptyResult(i int) *Result {
	cfg := s.cfgs[i]
	hosts, methods := s.groupShape(s.cells[i].Group)
	return &Result{
		Config:  cfg,
		Testbed: cfg.testbed(),
		Methods: cfg.methods(),
		Agg:     analysis.NewAggregator(methods, hosts),
	}
}

// warnf passes a non-fatal notice to the spec's Warnf, if any.
func (s *Sweep) warnf(format string, args ...any) {
	if s.spec.Warnf != nil {
		s.spec.Warnf(format, args...)
	}
}

// NumGroups returns the number of grid points in the expanded grid.
func (s *Sweep) NumGroups() int { return len(s.groups) }

// GroupCells returns the cell indices of group g in replica order.
func (s *Sweep) GroupCells(g int) []int { return append([]int(nil), s.groups[g]...) }

// groupShape returns group g's testbed size and method names, which
// every cell of the grid point shares.
func (s *Sweep) groupShape(g int) (hosts int, methods []string) {
	cfg := s.cfgs[s.groups[g][0]]
	ms := cfg.methods()
	methods = make([]string, len(ms))
	for i, m := range ms {
		methods[i] = m.Name
	}
	return cfg.testbed().N(), methods
}

// Run executes every selected cell over a worker pool and merges
// replicas: Start selects and reuses, the pool computes what is left,
// and every finished cell lands in the run, which folds each group's
// replicas in replica order as they land — concurrently across groups —
// making the merged tables byte-identical across Parallel settings,
// and, because seeds derive from coordinates, across any sharding by
// Filter or reuse of persisted snapshots. Each worker owns a reusable
// Arena, so successive cells pay in-place reinitialization instead of
// full construction. With an OutDir, a cell's aggregator is released
// once it is persisted and folded (see CellResult.Res).
func (s *Sweep) Run() (*SweepResult, error) {
	run, toRun, err := s.Start(s.spec.OutDir, false, s.spec.Results, nil)
	if err != nil {
		return nil, err
	}
	workers := s.spec.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(toRun))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := NewArena()
			for i := range jobs {
				t0 := time.Now()
				res, err := arena.RunRetained(s.cfgs[i])
				// A persist, store or fold failure never aborts in-flight
				// cells; it surfaces from Err once the pool drains.
				run.Land(CellResult{Cell: s.cells[i], Res: res, Wall: time.Since(t0), Err: err}, nil)
			}
		}()
	}
	for _, i := range toRun {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if err := run.Err(); err != nil {
		return nil, err
	}
	return run.Result(workers), nil
}
