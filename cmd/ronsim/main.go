// Command ronsim reproduces the paper's evaluation: it runs a simulated
// measurement campaign for any of the three datasets (Table 3) and emits
// every table and figure — Table 5/6/7 as text, Figures 2-5 as CDF series,
// and the Figure 6 design space from the §5.3 cost model.
//
// Usage:
//
//	ronsim -dataset ron2003 -days 2 -seed 1 -out results/
//	ronsim -all -days 1
//
// Both modes run one experiment built from the same flags. Without
// -sweep it is one campaign per dataset, seeded with -seed, printed
// whole — report and Figures 2–5 — with its files under -out named
// <dataset>-<artifact>, and its probe trace in the -trace file. Flags
// such a run would ignore are refused instead: a value list, -replicas
// past 1, -trace with -all, and the shard, resume and fleet flags.
//
// Sweep mode expands a grid of campaigns — datasets × grid axes × seed
// replicas — runs the cells over a worker pool, and merges each grid
// point's replicas into one set of tables. The axis flags (-hysteresis,
// -probeinterval, -losswindow, -tablerefresh, ...) are derived from the
// experiment package's axis registry, beside the -lossscale ×
// -edgeshare profile crossing; a newly registered axis gets its flag,
// cell naming, seeding, snapshots, and manifest round-trips for free:
//
//	ronsim -sweep -replicas 8 -parallel 0 -days 0.5 -out results/
//	ronsim -sweep -all -hysteresis 0,0.25 -lossscale 1,4 -replicas 4
//	ronsim -sweep -probeinterval 0,30s -losswindow 0,50 -out results/
//	ronsim -sweep -tablerefresh 0,1m -replicas 4 -out results/
//
// -workload runs a multi-path + FEC application workload alongside the
// probes: streams emit periodic frames whose FEC shards stripe across
// the k best link-disjoint overlay paths, and each report grows a
// delivered-frame table comparing multi-path+FEC against best-path
// delivery. The workload axes (-redundancy, -paths, -streams) sweep
// its shape, and any non-zero value of theirs enables the workload for
// that cell on its own:
//
//	ronsim -workload -dataset ron2003 -days 1
//	ronsim -sweep -workload -redundancy 0.25,1 -replicas 4 -out results/
//	ronsim -sweep -streams 4 -paths 1,2,3 -days 0.5
//
// Sweeps are distributable and resumable. -cells restricts a run to a
// shard of the grid (names, globs, indices, or index ranges); because
// per-cell seeds derive from grid coordinates, disjoint shards run on
// different machines combine — via -merge-only — into output
// byte-identical to a single-machine run. Every cell persists a
// checksummed snapshot of its aggregator state under -out, so -resume
// skips completed cells after a kill, or when the grid grows along new
// axes:
//
//	ronsim -sweep -replicas 4 -out results/ -cells '*-r00,*-r01'   # machine A
//	ronsim -sweep -replicas 4 -out results/ -cells '*-r02,*-r03'   # machine B
//	ronsim -sweep -replicas 4 -out results/ -merge-only            # coordinator
//	ronsim -sweep -replicas 4 -out results/ -resume                # after a kill
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	_ "repro/cmd/internal/tablerefresh" // registers the -tablerefresh axis
	"repro/experiment"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/trace"
)

// allDatasets is what -all expands to.
var allDatasets = []core.Dataset{core.RON2003, core.RONwide, core.RONnarrow}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// cmdFlags is ronsim's parsed command line.
type cmdFlags struct {
	dataset, outDir, traceTo     string
	days                         float64
	seed                         uint64
	all, workload                bool
	sweep, resume, mergeOnly     bool
	replicas, parallel           int
	lossScale, edgeShare, cells  string
	cpuProf, memProf             string
	serve, workerURL, workerName string
	leaseTTL                     time.Duration
	// axes parses the registry-derived axis flags: every registered
	// axis (standard and custom alike) gets its value-list flag from
	// the registry; the profile axis is driven by -lossscale/-edgeshare
	// instead (gridAxes adds it).
	axes func() ([]core.Axis, error)
}

// run is ronsim with its arguments and output streams passed in; it
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	// Named like flag.CommandLine, so -h prints what it always has.
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f cmdFlags
	fs.StringVar(&f.dataset, "dataset", "ron2003", "dataset to reproduce: ron2003, ronwide, ronnarrow")
	fs.Float64Var(&f.days, "days", 2, "virtual campaign length in days")
	fs.Uint64Var(&f.seed, "seed", 1, "simulation seed (sweep mode: base seed for per-cell derivation)")
	fs.StringVar(&f.outDir, "out", "", "directory for figure data files (omit to skip)")
	fs.BoolVar(&f.all, "all", false, "run all three datasets plus the Figure 6 model")
	fs.StringVar(&f.traceTo, "trace", "", "write §4.1 probe trace records to this file (sweep mode: directory of per-cell traces); analyze with ronreport")

	fs.BoolVar(&f.workload, "workload", false, "run the multi-path + FEC application workload alongside probing (default streams/FEC shape; refine with -redundancy, -paths, -streams)")

	fs.BoolVar(&f.sweep, "sweep", false, "run a multi-campaign sweep over a worker pool and merge replicas")
	fs.IntVar(&f.replicas, "replicas", 1, "sweep: seed-varied replicates per grid point")
	fs.IntVar(&f.parallel, "parallel", 0, "sweep: max concurrent cells (0 = GOMAXPROCS)")
	fs.StringVar(&f.lossScale, "lossscale", "1", "comma-separated profile LossScale overrides for the grid")
	fs.StringVar(&f.edgeShare, "edgeshare", "1", "comma-separated profile EdgeShare overrides for the grid")
	fs.StringVar(&f.cells, "cells", "", "sweep: run only this shard of the grid (comma-separated cell/group names, globs, indices, or index ranges)")
	fs.StringVar(&f.cpuProf, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&f.memProf, "memprofile", "", "write a pprof heap profile at exit to this file")
	fs.BoolVar(&f.resume, "resume", false, "sweep: reuse completed cell snapshots found under -out, running only the missing cells")
	fs.BoolVar(&f.mergeOnly, "merge-only", false, "sweep: skip running; rebuild merged/ under -out from completed cell snapshots and report missing grid points")

	fs.StringVar(&f.serve, "serve", "", "sweep: serve the grid to a worker fleet on this address (host:port; port 0 picks one) instead of computing cells in this process")
	fs.StringVar(&f.workerURL, "worker", "", "sweep: join the fleet served by the coordinator at this URL and work cells until the sweep drains")
	fs.DurationVar(&f.leaseTTL, "lease", 0, "sweep -serve: cell lease lifetime; a worker silent this long forfeits its cell (default 1m)")
	fs.StringVar(&f.workerName, "workername", "", "sweep -worker: name reported to the coordinator (default host:pid)")
	f.axes = experiment.RegisterAxisValueFlags(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if err := f.exec(stdout); err != nil {
		fmt.Fprintln(stderr, "ronsim:", err)
		return 1
	}
	return 0
}

// exec runs the mode the flags select.
func (f *cmdFlags) exec(stdout io.Writer) (err error) {
	// Profiling hooks so perf work on the campaign engine starts from a
	// profile of the real binary, not a reconstruction: run any workload
	// with -cpuprofile/-memprofile and feed the output to `go tool
	// pprof`.
	stopProfiles, err := startProfiles(f.cpuProf, f.memProf)
	if err != nil {
		return err
	}
	defer func() { err = cmp.Or(err, stopProfiles()) }()

	// Fleet flags outside their mode would be silently ignored.
	if f.leaseTTL != 0 && f.serve == "" {
		return errors.New("-lease requires -serve")
	}
	if f.workerName != "" && f.workerURL == "" {
		return errors.New("-workername requires -worker")
	}
	if !f.sweep {
		// Sweep-only flags must not silently degrade into a default
		// single campaign: one that pollutes a sweep output directory,
		// runs one replica of several, or traces nothing under -all.
		for _, opt := range []struct {
			name string
			set  bool
		}{
			{"-cells", f.cells != ""}, {"-resume", f.resume}, {"-merge-only", f.mergeOnly},
			{"-serve", f.serve != ""}, {"-worker", f.workerURL != ""},
			{fmt.Sprintf("-replicas %d", f.replicas), f.replicas > 1},
			{"-trace with -all", f.all && f.traceTo != ""},
		} {
			if opt.set {
				return fmt.Errorf("%s requires -sweep", opt.name)
			}
		}
	}

	// DefaultConfig and NewSweep read 0 as "unset"; an explicit
	// non-positive length or replica count is refused, not defaulted.
	if f.days <= 0 {
		return fmt.Errorf("-days %v: want a positive virtual length", f.days)
	}
	if f.replicas < 1 {
		return fmt.Errorf("-replicas %d: want at least 1", f.replicas)
	}
	if f.serve != "" && f.traceTo != "" {
		// Campaigns run on the workers, so per-cell trace sinks in this
		// process would never fire; refuse rather than silently write an
		// empty trace directory.
		return errors.New("-trace is incompatible with -serve: traces are written where cells run; use -trace on a local sweep")
	}

	if f.workerURL != "" {
		// Worker mode: the coordinator owns the grid, the outputs, and
		// the merge; this process only computes leased cells, so every
		// grid and output flag belongs on the -serve side.
		return runWorkerMode(stdout, f.workerURL, f.workerName)
	}
	if f.mergeOnly {
		return runMergeOnly(stdout, f.outDir)
	}
	if f.sweep {
		return runSweep(stdout, f)
	}
	return runSingle(stdout, f)
}

// gridAxes is every axis the flags set: the profile axis crossed from
// -lossscale × -edgeshare, then the registry-derived axis flags that
// departed from their defaults. In sweep mode value lists expand the
// grid; a single run takes one value per axis.
func (f *cmdFlags) gridAxes() ([]core.Axis, error) {
	ls, err := experiment.ParseList("lossscale", f.lossScale, core.ParseProfileScale)
	if err != nil {
		return nil, err
	}
	es, err := experiment.ParseList("edgeshare", f.edgeShare, core.ParseProfileScale)
	if err != nil {
		return nil, err
	}
	profile, err := core.ProfileGrid(ls, es)
	if err != nil {
		return nil, err
	}
	axes, err := f.axes()
	if err != nil {
		return nil, err
	}
	return append([]core.Axis{profile}, axes...), nil
}

// cellTrace is one cell's trace file. A sweep opens it on the cell's
// first record, so skipped shard cells and snapshot-reused cells never
// clobber trace files written by an earlier or remote run. Each sink
// touches only its own cellTrace, so no locking is needed even though
// sinks run on worker goroutines.
type cellTrace struct {
	path string
	file *os.File
	w    *trace.Writer
	err  error
}

// open creates the trace file and writes its header.
func (ct *cellTrace) open() {
	if ct.file, ct.err = os.Create(ct.path); ct.err == nil {
		ct.w, ct.err = trace.NewWriter(ct.file)
	}
}

// cellTraces holds the trace of every cell, by expansion index, that
// the Configure hook gave one.
type cellTraces map[int]*cellTrace

// close flushes and closes every opened trace file and returns the
// first error any of them met.
func (ts cellTraces) close() error {
	var first error
	for _, ct := range ts {
		if ct.err != nil && first == nil {
			first = fmt.Errorf("trace %s: %w", ct.path, ct.err)
		}
		if ct.w == nil {
			continue
		}
		if err := ct.w.Flush(); err != nil && first == nil {
			first = err
		}
		if err := ct.file.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// experiment builds the experiment the flags describe, in sweep and
// single-run mode alike: datasets, days, seed, axes, workload and
// -parallel, then each mode's own options. A single run is a one-cell
// experiment per dataset that keeps -seed as its campaign seed and
// takes one value per axis. Under -trace every cell gets a trace: the
// -trace file itself in a single run, <cell>.trc under the -trace
// directory in a sweep (installed by the Configure hook, which runs
// serially at expansion).
func (f *cmdFlags) experiment(stdout io.Writer, opts ...experiment.Option) (*experiment.Experiment, cellTraces, error) {
	datasets := allDatasets
	if !f.all {
		d, err := core.ParseDataset(f.dataset)
		if err != nil {
			return nil, nil, err
		}
		datasets = []core.Dataset{d}
	}
	axes, err := f.gridAxes()
	if err != nil {
		return nil, nil, err
	}
	opts = append(opts,
		experiment.Datasets(datasets...),
		experiment.Days(f.days),
		experiment.Seed(f.seed),
		experiment.Replicas(f.replicas),
		experiment.Parallel(f.parallel),
		experiment.Warn(func(format string, args ...any) { fmt.Fprintf(stdout, format, args...) }),
	)
	for _, a := range axes {
		if !f.sweep && len(a.Values()) != 1 {
			def, _ := core.LookupAxis(a.Name())
			flagName := "-" + cmp.Or(def.Flag, def.Name)
			if def.Usage == "" {
				// The one axis without a flag of its own: the profile,
				// crossed from two flags.
				flagName = "-lossscale/-edgeshare"
			}
			return nil, nil, fmt.Errorf("%s: a single campaign takes one value per axis; value lists need -sweep", flagName)
		}
		opts = append(opts, experiment.Axes(a))
	}
	if f.workload {
		opts = append(opts, experiment.Workload(experiment.DefaultWorkloadConfig()))
	}

	traces := cellTraces{}
	switch {
	case f.traceTo == "":
	case f.sweep:
		if err := os.MkdirAll(f.traceTo, 0o755); err != nil {
			return nil, nil, err
		}
		// Trace files open lazily, which would defer an unwritable
		// directory until after hours of compute; probe it now.
		probe, err := os.CreateTemp(f.traceTo, ".writable*")
		if err != nil {
			return nil, nil, fmt.Errorf("-trace directory is not writable: %w", err)
		}
		probe.Close()
		os.Remove(probe.Name())
	default:
		// A single run has one cell (index 0; its refusals see to
		// that), traced to the -trace file itself, opened now so an
		// unwritable path fails before the campaign.
		ct := &cellTrace{path: f.traceTo}
		if ct.open(); ct.err != nil {
			return nil, nil, ct.err
		}
		traces[0] = ct
	}
	opts = append(opts, experiment.Configure(func(c core.Cell, cfg *core.Config) {
		if !f.sweep {
			cfg.Seed = f.seed
		}
		if f.traceTo == "" {
			return
		}
		ct := traces[c.Index]
		if ct == nil {
			ct = &cellTrace{path: filepath.Join(f.traceTo, c.Name()+".trc")}
			traces[c.Index] = ct
		}
		cfg.TraceSink = func(r trace.Record) {
			if ct.w == nil && ct.err == nil {
				ct.open()
			}
			if ct.err == nil {
				ct.err = ct.w.Append(r)
			}
		}
	}))
	e, err := experiment.New(opts...)
	return e, traces, err
}

// runSingle runs the campaigns the flags select, one per dataset, and
// prints each whole in dataset order: its report, the Figure 2–5
// overlays, its <dataset>-<artifact> files under -out and its trace
// count; then Figure 6 when RON2003 ran.
func runSingle(stdout io.Writer, f *cmdFlags) error {
	e, traces, err := f.experiment(stdout)
	if err != nil {
		return err
	}
	res, err := e.Run()
	if err = cmp.Or(err, traces.close()); err != nil {
		return err
	}
	for _, c := range res.Cells {
		r := c.Res
		fmt.Fprintf(stdout, "=== %s: simulating %.2f virtual days (seed %d) ===\n", c.Cell.Dataset, r.Config.Days, r.Config.Seed)
		fmt.Fprintf(stdout, "(wall time %.1fs)\n\n%s\n", c.Wall.Seconds(), r.Report())
		printFigures(stdout, r)
		if f.outDir != "" {
			if err := writeFigures(f.outDir, c.Cell.Dataset, r); err != nil {
				return err
			}
		}
		if ct := traces[c.Cell.Index]; ct != nil {
			fmt.Fprintf(stdout, "wrote %d trace records to %s\n", ct.w.Count(), ct.path)
		}
	}
	if slices.Contains(res.Datasets, core.RON2003) {
		return printFigure6(stdout, f.outDir)
	}
	return nil
}

// runSweep builds an experiment from the flags and runs it: per-cell
// progress lines as cells finish, one merged report per complete grid
// point, and — under -out — per-cell and merged output directories, a
// checksummed snapshot of every finished cell, and a sweep.json
// manifest that -merge-only and ronreport -sweep consume. With -cells
// only the matching shard runs; with -resume, cells whose
// snapshot already exists are reused instead of recomputed.
func runSweep(stdout io.Writer, f *cmdFlags) error {
	var opts []experiment.Option
	if f.cells != "" {
		opts = append(opts, experiment.Shard(f.cells))
	}
	if f.resume {
		if f.outDir == "" {
			return errors.New("-resume needs -out: snapshots live under the output directory")
		}
		opts = append(opts, experiment.Resume(f.outDir))
	}
	if f.outDir != "" {
		opts = append(opts, experiment.Output(f.outDir))
	}
	if f.serve != "" {
		opts = append(opts,
			experiment.Remote(f.serve),
			experiment.RemoteLeaseTTL(f.leaseTTL),
			experiment.RemoteReady(func(addr string) {
				fmt.Fprintf(stdout, "coordinator listening on %s\njoin workers with: ronsim -sweep -worker %s\n", addr, addr)
			}),
		)
	}

	// The Progress hook is where a cell's full result is in hand (a
	// sweep with -out releases each cell's aggregator once it is on disk
	// and merged into its grid point), so the per-cell figure
	// directories are written here, reused cells included: a killed
	// -sweep -out run keeps the figures of every cell it finished, like
	// its snapshots.
	var total int
	done, wroteCells := 0, 0
	var figErr error
	opts = append(opts, experiment.Progress(func(r core.CellResult) {
		done++
		status := fmt.Sprintf("wall %5.1fs", r.Wall.Seconds())
		switch {
		case r.Err != nil:
			status = "FAILED: " + r.Err.Error()
		case r.Cached:
			status = fmt.Sprintf("reused snapshot  probes %d", r.Res.MeasureProbes)
		default:
			status += fmt.Sprintf("  probes %d", r.Res.MeasureProbes)
		}
		fmt.Fprintf(stdout, "[%3d/%3d] cell %-36s seed %-20d %s\n",
			done, total, r.Cell.Name(), r.Cell.Seed, status)
		if f.outDir != "" && r.Err == nil && figErr == nil {
			dir := filepath.Join(f.outDir, core.CellsDirName, r.Cell.Name())
			if figErr = writeFigures(dir, r.Cell.Dataset, r.Res); figErr == nil {
				wroteCells++
			}
		}
	}))

	e, traces, err := f.experiment(stdout, opts...)
	if err != nil {
		return err
	}
	sweep, err := e.Sweep()
	if err != nil {
		return err
	}
	gridCells := sweep.Cells()
	total = 0
	for _, c := range gridCells {
		if e.Match(c) {
			total++
		}
	}
	shard := ""
	if f.cells != "" {
		shard = fmt.Sprintf(" [shard -cells %s: %d of %d]", e.Shard(), total, len(gridCells))
	}
	fmt.Fprintf(stdout, "=== sweep: %d cells (%.2f virtual days each), base seed %d%s ===\n",
		total, sweep.Config(0).Days, f.seed, shard)

	res, err := e.Run()
	if err = cmp.Or(err, traces.close(), figErr); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nsweep finished in %.1fs on %d workers (%d cells reused)\n\n",
		res.Wall.Seconds(), res.Parallel, res.Reused)

	incomplete := 0
	for gi := range res.Groups {
		g := &res.Groups[gi]
		if !g.Complete() {
			incomplete++
			var missing []string
			for _, c := range g.Cells {
				if c.Res == nil {
					missing = append(missing, c.Cell.Name())
				}
			}
			fmt.Fprintf(stdout, "=== %s: incomplete (missing %s) ===\n",
				g.Name(), strings.Join(missing, ", "))
			continue
		}
		fmt.Fprintf(stdout, "=== merged %s: %d replicas ===\n%s\n",
			g.Name(), len(g.Cells), g.Merged.Report())
	}
	if incomplete > 0 {
		fmt.Fprintf(stdout, "%d grid points are incomplete; run the remaining shards against the same spec, combine the %s/ directories, then `ronsim -sweep -merge-only -out ...`\n",
			incomplete, core.CellsDirName)
	}

	if f.outDir != "" {
		wroteMerged := 0
		for gi := range res.Groups {
			g := &res.Groups[gi]
			if !g.Complete() {
				continue
			}
			dir := filepath.Join(f.outDir, core.MergedDirName, g.Name())
			if err := writeFigures(dir, g.Dataset, g.Merged); err != nil {
				return err
			}
			wroteMerged++
		}
		fmt.Fprintf(stdout, "wrote %d cell and %d merged output directories under %s\n",
			wroteCells, wroteMerged, f.outDir)
	}

	// The manifest lands next to the figure output, or next to the
	// traces when -out was omitted, so merge-only mode and ronreport
	// -sweep always have a directory to read. It covers the FULL grid,
	// so a shard's manifest lets the coordinator see what is missing.
	manifestDir := f.outDir
	if manifestDir == "" {
		manifestDir = f.traceTo
	}
	if manifestDir == "" {
		return nil
	}
	err = e.WriteManifest(res, manifestDir, func(c core.Cell) string {
		ct, ok := traces[c.Index]
		if !ok {
			return ""
		}
		// Record the trace when this run wrote it OR an earlier run
		// (another shard, a resumed sweep) left it on disk — the
		// rewritten manifest must not blank paths to intact files.
		if ct.w == nil {
			if _, err := os.Stat(ct.path); err != nil {
				return ""
			}
		}
		return manifestTracePath(manifestDir, ct.path)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote manifest %s\n", filepath.Join(manifestDir, core.ManifestName))
	return nil
}

// runMergeOnly rebuilds merged/ from whatever completed cell snapshots
// exist under dir — its own run's, a resumed run's, or shards copied in
// from other machines — and reports the grid points still missing
// cells. It is a resumed run of the manifest's re-expanded grid that
// dispatches nothing: Sweep.Start reloads every cell through the
// admission check -resume uses, warning once (in -resume's words) for
// each snapshot it refuses, and folds each grid point in replica order,
// so a snapshot of another grid point counts as missing and rebuilt
// tables are byte-identical to a single-machine sweep. It passes no
// result store and rewrites nothing under cells/.
func runMergeOnly(stdout io.Writer, dir string) error {
	if dir == "" {
		return errors.New("-merge-only needs -out pointing at a sweep output directory")
	}
	m, err := experiment.LoadManifest(dir)
	if err != nil {
		return err
	}
	s, err := m.Sweep(func(format string, args ...any) { fmt.Fprintf(stdout, format, args...) }, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "merge-only: %d grid points in %s\n\n",
		len(m.Groups), filepath.Join(dir, core.ManifestName))
	run, _, err := s.Start(dir, true, nil, nil)
	if err != nil {
		return err
	}
	if err := run.Err(); err != nil {
		return err
	}
	res := run.Result(0)
	merged := 0
	var incomplete, missingNames []string
	for gi := range res.Groups {
		g, mg := &res.Groups[gi], &m.Groups[gi]
		if g.Complete() {
			if err := writeFigures(filepath.Join(dir, core.MergedDirName, mg.Name), g.Dataset, g.Merged); err != nil {
				return err
			}
			merged++
			fmt.Fprintf(stdout, "=== merged %s: %d replicas from snapshots ===\n%s\n",
				mg.Name, len(g.Cells), g.Merged.Report())
			continue
		}
		incomplete = append(incomplete, mg.Name)
		landed, _ := run.Group(gi)
		fmt.Fprintf(stdout, "=== %s: MISSING %d/%d cells ===\n", mg.Name, len(g.Cells)-landed, len(g.Cells))
		for k, c := range g.Cells {
			if c.Res == nil {
				// Name the cell by its grid coordinates, not just its
				// label: the coordinates are what an operator pastes
				// back into axis flags to re-run exactly the missing work.
				fmt.Fprintf(stdout, "    %s [%s]\n", c.Cell.Name(), mg.CellCoords(k))
				missingNames = append(missingNames, c.Cell.Name())
			}
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "merge-only: rebuilt %d/%d merged grid points under %s\n",
		merged, len(m.Groups), filepath.Join(dir, core.MergedDirName))
	if len(incomplete) > 0 {
		fmt.Fprintf(stdout, "missing grid points: %s\n", strings.Join(incomplete, ", "))
		fmt.Fprintf(stdout, "re-run exactly the missing cells with: -sweep ... -cells %s\n",
			strings.Join(missingNames, ","))
	}
	if merged == 0 {
		return errors.New("no grid point had a complete set of cell snapshots")
	}
	return nil
}

// manifestTracePath stores a trace file's location relative to the
// manifest's directory when possible, else absolute — never relative to
// the process cwd, which ronreport would misresolve.
func manifestTracePath(manifestDir, tracePath string) string {
	dirAbs, err1 := filepath.Abs(manifestDir)
	pathAbs, err2 := filepath.Abs(tracePath)
	if err1 != nil || err2 != nil {
		return tracePath
	}
	if rel, err := filepath.Rel(dirAbs, pathAbs); err == nil {
		return rel
	}
	return pathAbs
}

// printFigures prints the result's Figures 2–5 as inline CDF overlays.
func printFigures(stdout io.Writer, res *core.Result) {
	names := res.Agg.Methods()
	fmt.Fprintln(stdout, analysis.RenderCDFOverlay(
		"Figure 2: per-path long-term loss rate CDF (percent, direct path)",
		0, 7, 15, []string{"direct"}, []*analysis.CDF{res.Figure2(core.Figure2MinProbes)}))
	fmt.Fprintln(stdout, analysis.RenderCDFOverlay(
		"Figure 3: 20-minute loss-rate CDF per method (fraction)",
		0, 1, 11, names, res.Figure3()))
	f4names, f4cdfs := res.Figure4()
	if len(f4cdfs) > 0 {
		fmt.Fprintln(stdout, analysis.RenderCDFOverlay(
			"Figure 4: per-path conditional loss probability CDF (percent)",
			0, 100, 11, f4names, f4cdfs))
	}
	fmt.Fprintln(stdout, analysis.RenderCDFOverlay(
		"Figure 5: per-path mean latency CDF, paths over 50 ms (ms)",
		0, 300, 13, names, res.Figure5()))
}

// writeFigures writes the result's output files, gnuplot-style data
// for the figures and text for the tables, named <dataset>-<artifact>.
func writeFigures(dir string, d core.Dataset, res *core.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	prefix := strings.ToLower(d.String()) + "-"
	for _, a := range res.Artifacts() {
		if err := os.WriteFile(filepath.Join(dir, prefix+a.Name), []byte(a.Text), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// printFigure6 renders the §5.3 design space, and writes it to
// fig6.dat under outDir when that is set.
func printFigure6(stdout io.Writer, outDir string) error {
	p := costmodel.Defaults()
	ds, err := p.Space(21)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Figure 6: reactive vs redundant design space\n")
	fmt.Fprintf(&b, "# best-expected-path limit %.2f, independence limit %.2f\n",
		ds.ReactiveLimit, ds.RedundantLimit)
	fmt.Fprintf(&b, "%12s %12s %12s\n", "improvement", "reactive", "redundant")
	for i := range ds.Reactive {
		r, d := ds.Reactive[i].DataFraction, ds.Redundant[i].DataFraction
		fmt.Fprintf(&b, "%12.2f %12s %12s\n",
			ds.Reactive[i].Improvement, frac(r), frac(d))
	}
	for _, target := range []float64{0.1, 0.2, 0.3, 0.45} {
		s, err := p.Recommend(target)
		if err == nil {
			fmt.Fprintf(&b, "recommendation at %.0f%% improvement (16 kb/s flow): %s\n",
				target*100, s)
		}
	}
	fmt.Fprintln(stdout, b.String())
	if outDir == "" {
		return nil
	}
	return os.WriteFile(filepath.Join(outDir, "fig6.dat"), []byte(b.String()), 0o644)
}

func frac(v float64) string {
	if v < 0 {
		return "infeasible"
	}
	return fmt.Sprintf("%.4f", v)
}

// startProfiles begins CPU profiling and returns the function that
// stops it and writes the heap profile, returning the first error of
// either; either path may be empty.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if memPath == "" {
			return err
		}
		f, cerr := os.Create(memPath)
		if cerr != nil {
			return cmp.Or(err, cerr)
		}
		runtime.GC() // up-to-date allocation statistics
		return cmp.Or(err, pprof.WriteHeapProfile(f), f.Close())
	}, nil
}
