// Package experiment is the public, composable face of the sweep
// engine: it builds multi-axis measurement-campaign grids with
// functional options, runs them with sharding, resumption, and
// per-cell snapshot persistence, and round-trips their full shape
// (datasets × axes × replicas) through sweep manifests.
//
// A minimal experiment:
//
//	e, err := experiment.New(
//		experiment.Datasets(experiment.RONnarrow),
//		experiment.Days(0.5),
//		experiment.Seed(42),
//		experiment.Replicas(8),
//		experiment.AxisValues("hysteresis", "0", "0.25"),
//	)
//	res, err := e.Run()
//
// Grid dimensions are Axis values, not struct fields: any package can
// define a new axis kind (an AxisDef: how a value parses, labels a
// cell, and configures a campaign) and register it with Register,
// after which it sweeps, shards, resumes, snapshots, and serializes
// exactly like the built-in ones — no engine changes. See AxisDef and
// the axis registry in this package.
//
// What Run returns depends on whether the experiment persists: without
// Output, every cell of the result holds its full statistics; with
// Output, a cell's snapshot on disk is its statistics, and the result
// keeps each cell's counters and every merged group but no per-cell
// aggregator (see Run). A Progress callback sees every cell whole
// either way.
//
// Compatibility contract: grids over the standard axes produce cell
// names, derived seeds, and rendered outputs byte-identical to the
// pre-axis engine (the repo's golden digests enforce this).
package experiment

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
)

// Option configures an Experiment under construction.
type Option func(*Experiment) error

// Experiment is a configured sweep: a grid specification plus the
// run-time policies (sharding, resumption, output persistence) that
// surround it. Build with New; zero values are not useful.
type Experiment struct {
	spec   core.SweepSpec
	axes   []core.Axis
	shard  string
	filter *core.CellFilter
	outDir string

	// Remote-execution settings (see remote.go): when remote is set,
	// Run serves the grid to a worker fleet instead of computing it.
	remote      bool
	remoteAddr  string
	remoteTTL   time.Duration
	remoteReady func(addr string)
	remoteCtx   context.Context

	sweep *core.Sweep // memoized expansion
	store *resultstore.Store
}

// New builds an experiment from options. The grid is not expanded yet;
// Cells or Run do that.
func New(opts ...Option) (*Experiment, error) {
	e := &Experiment{}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	e.spec.Axes = e.axes
	if e.shard != "" {
		f, err := core.ParseCellFilter(e.shard)
		if err != nil {
			return nil, err
		}
		e.filter = f
		e.spec.Filter = f.Match
	}
	if e.outDir != "" {
		// Persisting experiments also feed the columnar result store:
		// one row per completed cell and merged group lands in
		// results.seg next to cells/ and merged/, queryable with
		// ronreport. Opening recovers (and truncates) any torn tail a
		// killed run left behind.
		st, err := resultstore.Open(resultstore.SegmentPath(e.outDir))
		if err != nil {
			return nil, err
		}
		e.store = st
		e.spec.Results = st
		// The sweep's cell lifecycle persists each finished cell's
		// snapshot there as it lands.
		e.spec.OutDir = e.outDir
	}
	return e, nil
}

// Sweep expands the grid (once; the expansion is memoized) and
// validates the shard filter against it.
func (e *Experiment) Sweep() (*core.Sweep, error) {
	if e.sweep != nil {
		return e.sweep, nil
	}
	s, err := core.NewSweep(e.spec)
	if err != nil {
		return nil, err
	}
	if e.filter != nil {
		if err := e.filter.Validate(s.Cells()); err != nil {
			return nil, err
		}
	}
	e.sweep = s
	return s, nil
}

// Cells returns the expanded grid in expansion order.
func (e *Experiment) Cells() ([]core.Cell, error) {
	s, err := e.Sweep()
	if err != nil {
		return nil, err
	}
	return s.Cells(), nil
}

// Match reports whether the experiment's shard selects the cell (true
// for every cell when unsharded).
func (e *Experiment) Match(c core.Cell) bool {
	return e.filter == nil || e.filter.Match(c)
}

// Shard returns the shard filter specification ("" when unsharded).
func (e *Experiment) Shard() string { return e.shard }

// Run expands (if needed) and executes the experiment: selected cells
// run over the worker pool, resumable cells restore from snapshots,
// and — when an output directory is configured — every finished cell
// persists a checksummed snapshot the moment it completes. With
// Remote, the cells run on a worker fleet instead of in-process; the
// result is byte-identical either way.
//
// A run with an output directory holds groups, not cells: once a cell
// is on disk and folded into its grid point, its aggregator is released
// (the result's Cells[i].Res keeps the counters; Res.Agg is nil), so
// anything that needs a cell's full statistics takes them in the
// Progress callback or reads the snapshot back. A run without one
// returns every cell whole.
func (e *Experiment) Run() (*core.SweepResult, error) {
	res, err := e.run()
	if e.store != nil {
		// The store's lifetime is one Run: close it so the segment is
		// fully on disk when Run returns (each append was already a
		// single framed write, so even a crash before here loses at
		// most a torn tail).
		if cerr := e.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
		e.store = nil
		e.spec.Results = nil
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (e *Experiment) run() (*core.SweepResult, error) {
	s, err := e.Sweep()
	if err != nil {
		return nil, err
	}
	if e.remote {
		return e.runRemote(s)
	}
	return s.Run()
}

// WriteManifest records the full grid — every axis with its values,
// per-cell seeds, and artifact paths — as sweep.json in dir. tracePath,
// when non-nil, maps a cell to its trace file path relative to dir (""
// for cells without one); snapshot paths are recorded canonically
// whenever the experiment persists snapshots. Artifact paths recorded
// by a prior manifest for the same cells (matched by name and seed) are
// carried forward rather than blanked, so a rerun that records fewer
// artifacts — a resume without tracing, a merge pass — never orphans
// intact files.
func (e *Experiment) WriteManifest(res *core.SweepResult, dir string, tracePath func(core.Cell) string) error {
	var snapPath func(core.Cell) string
	if e.outDir != "" {
		snapPath = func(c core.Cell) string { return core.CellSnapshotRelPath(c.Name()) }
	}
	m := res.Manifest(tracePath, snapPath)
	if prior, err := core.ReadManifest(dir); err == nil {
		keep := map[string]core.ManifestCell{}
		for _, g := range prior.Groups {
			for _, c := range g.Cells {
				keep[c.Name] = c
			}
		}
		for gi := range m.Groups {
			for ci := range m.Groups[gi].Cells {
				mc := &m.Groups[gi].Cells[ci]
				if p, ok := keep[mc.Name]; ok && p.Seed == mc.Seed {
					if mc.Trace == "" {
						mc.Trace = p.Trace
					}
					if mc.Snapshot == "" {
						mc.Snapshot = p.Snapshot
					}
				}
			}
		}
	}
	return m.Write(dir)
}

// LoadManifest reads the sweep manifest in dir.
func LoadManifest(dir string) (*core.SweepManifest, error) {
	return core.ReadManifest(dir)
}

// --- options ---

// Datasets selects the datasets to sweep (default: RON2003 only).
func Datasets(ds ...Dataset) Option {
	return func(e *Experiment) error {
		e.spec.Datasets = append(e.spec.Datasets, ds...)
		return nil
	}
}

// Days sets the virtual campaign length per cell (0: the engine
// default; a negative length fails the cell's validation).
func Days(days float64) Option {
	return func(e *Experiment) error {
		e.spec.Days = days
		return nil
	}
}

// Seed sets the sweep's base seed; per-cell seeds derive from it and
// the cell coordinates.
func Seed(seed uint64) Option {
	return func(e *Experiment) error {
		e.spec.BaseSeed = seed
		return nil
	}
}

// Replicas sets the number of seed-varied replicates per grid point
// (0: one; a negative count is refused).
func Replicas(n int) Option {
	return func(e *Experiment) error {
		if n < 0 {
			return fmt.Errorf("experiment: Replicas(%d): want a count >= 0", n)
		}
		e.spec.Replicas = n
		return nil
	}
}

// Parallel caps concurrently running cells (<=0: GOMAXPROCS).
func Parallel(n int) Option {
	return func(e *Experiment) error {
		e.spec.Parallel = n
		return nil
	}
}

// Axes adds grid axes. Standard axes replace their default value
// lists; any other registered or hand-built axis appends a new grid
// dimension after them. An axis pinned to a single default (unlabeled)
// value is equivalent to not mentioning it at all — same cell names,
// same coordinate-derived seeds — so resuming or merging an existing
// sweep never requires reciting its axis list exactly.
func Axes(axes ...core.Axis) Option {
	return func(e *Experiment) error {
		e.axes = append(e.axes, axes...)
		return nil
	}
}

// AxisValues adds a grid axis by registry name over the given values
// (canonical or CLI form) — the data-driven form of Axes.
func AxisValues(name string, values ...string) Option {
	return func(e *Experiment) error {
		a, err := NewAxis(name, values...)
		if err != nil {
			return err
		}
		e.axes = append(e.axes, a)
		return nil
	}
}

// Shard restricts the run to the cells matching a -cells style filter
// (names, globs, indices, index ranges). Expansion is unaffected:
// every cell keeps its coordinates and seed, so disjoint shards on
// different machines combine byte-identically.
func Shard(filter string) Option {
	return func(e *Experiment) error {
		e.shard = filter
		return nil
	}
}

// Resume reuses completed cell snapshots found under dir, running only
// the missing cells — resumption after a kill, or grid extension when
// axes grew.
func Resume(dir string) Option {
	return func(e *Experiment) error {
		if dir == "" {
			return errors.New("experiment: Resume needs a snapshot directory")
		}
		e.spec.Resume = dir
		return nil
	}
}

// Output persists a checksummed snapshot of every finished cell under
// dir (cells/<cell>/cell.snap) as cells complete, and records snapshot
// paths in manifests written by WriteManifest. The snapshots being a
// second copy, Run then releases each cell's aggregator once the cell
// is folded into its group (see Run).
func Output(dir string) Option {
	return func(e *Experiment) error {
		if dir == "" {
			return errors.New("experiment: Output needs a directory")
		}
		e.outDir = dir
		return nil
	}
}

// Workload runs a multi-path + FEC application workload in every cell:
// the configured streams emit periodic frames, each frame's FEC group
// is striped across the k best link-disjoint overlay paths, and
// delivered-frame loss and latency are accounted per cell next to the
// probe metrics (rendered as the report's workload table). The base
// configuration applies before grid axes, so workload axes
// ("redundancy", "paths", "streams") refine it per cell.
func Workload(w WorkloadConfig) Option {
	return func(e *Experiment) error {
		if err := w.Validate(); err != nil {
			return err
		}
		e.spec.Workload = &w
		return nil
	}
}

// Configure installs a per-cell configuration hook, applied serially
// at expansion after the dataset defaults, axis values, and seed.
func Configure(fn func(core.Cell, *core.Config)) Option {
	return func(e *Experiment) error {
		e.spec.Configure = fn
		return nil
	}
}

// Progress installs a completion callback; calls are serialized but
// arrive in completion order. The callback sees the cell's full Result,
// which is the place to consume it: a run with an Output directory
// releases the aggregator afterwards (see Run).
func Progress(fn func(core.CellResult)) Option {
	return func(e *Experiment) error {
		e.spec.Progress = fn
		return nil
	}
}

// Warn routes non-fatal run-time notices (an unusable snapshot that
// forces a recompute, for example) to fn; the default discards them.
func Warn(fn func(format string, args ...any)) Option {
	return func(e *Experiment) error {
		e.spec.Warnf = fn
		return nil
	}
}
