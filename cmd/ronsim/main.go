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
// Sweep mode expands a grid of campaigns — datasets × grid axes × seed
// replicas — runs the cells over a worker pool, and merges each grid
// point's replicas into one set of tables. The axis flags (-hysteresis,
// -probeinterval, -losswindow, -tablerefresh, and the -lossscale ×
// -edgeshare profile crossing) are derived from the experiment
// package's axis registry; a newly registered axis gets its flag, cell
// naming, seeding, snapshots, and manifest round-trips for free:
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
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/experiment"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// allDatasets is what -all expands to, in both single-run and sweep mode.
var allDatasets = []core.Dataset{core.RON2003, core.RONwide, core.RONnarrow}

func main() {
	var (
		dataset = flag.String("dataset", "ron2003", "dataset to reproduce: ron2003, ronwide, ronnarrow")
		days    = flag.Float64("days", 2, "virtual campaign length in days")
		seed    = flag.Uint64("seed", 1, "simulation seed (sweep mode: base seed for per-cell derivation)")
		outDir  = flag.String("out", "", "directory for figure data files (omit to skip)")
		all     = flag.Bool("all", false, "run all three datasets plus the Figure 6 model")
		traceTo = flag.String("trace", "", "write §4.1 probe trace records to this file (sweep mode: directory of per-cell traces); analyze with ronreport")

		workload = flag.Bool("workload", false, "run the multi-path + FEC application workload alongside probing (default streams/FEC shape; refine with -redundancy, -paths, -streams)")

		sweep     = flag.Bool("sweep", false, "run a multi-campaign sweep over a worker pool and merge replicas")
		replicas  = flag.Int("replicas", 1, "sweep: seed-varied replicates per grid point")
		parallel  = flag.Int("parallel", 0, "sweep: max concurrent cells (0 = GOMAXPROCS)")
		lossScale = flag.String("lossscale", "1", "sweep: comma-separated profile LossScale overrides for the grid")
		edgeShare = flag.String("edgeshare", "1", "sweep: comma-separated profile EdgeShare overrides for the grid")
		cells     = flag.String("cells", "", "sweep: run only this shard of the grid (comma-separated cell/group names, globs, indices, or index ranges)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		resume    = flag.Bool("resume", false, "sweep: reuse completed cell snapshots found under -out, running only the missing cells")
		mergeOnly = flag.Bool("merge-only", false, "sweep: skip running; rebuild merged/ under -out from completed cell snapshots and report missing grid points")

		serve      = flag.String("serve", "", "sweep: serve the grid to a worker fleet on this address (host:port; port 0 picks one) instead of computing cells in this process")
		workerURL  = flag.String("worker", "", "sweep: join the fleet served by the coordinator at this URL and work cells until the sweep drains")
		leaseTTL   = flag.Duration("lease", 0, "sweep -serve: cell lease lifetime; a worker silent this long forfeits its cell (default 1m)")
		workerName = flag.String("workername", "", "sweep -worker: name reported to the coordinator (default host:pid)")
	)
	// Every registered axis (standard and custom alike) derives its
	// value-list flag from the registry; the profile axis is driven by
	// the -lossscale/-edgeshare pair above instead. In single-campaign
	// mode an axis flag carries exactly one value and applies straight
	// to the config; in sweep mode value lists expand the grid.
	collectAxisFlags := experiment.RegisterAxisValueFlags(flag.CommandLine)
	flag.Parse()

	// Profiling hooks so perf work on the campaign engine starts from a
	// profile of the real binary, not a reconstruction: run any workload
	// with -cpuprofile/-memprofile and feed the output to `go tool
	// pprof`. stopProfiles is called on every exit path, including
	// fatal.
	if err := startProfiles(*cpuProf, *memProf); err != nil {
		fatal(err)
	}
	defer stopProfiles()

	if !*sweep {
		// Sweep-only flags must not silently degrade into a default
		// single campaign that pollutes a sweep output directory.
		for name, set := range map[string]bool{
			"-cells": *cells != "", "-resume": *resume, "-merge-only": *mergeOnly,
			"-serve": *serve != "", "-worker": *workerURL != "",
		} {
			if set {
				fatal(fmt.Errorf("%s requires -sweep", name))
			}
		}
	}

	if *workerURL != "" {
		// Worker mode: the coordinator owns the grid, the outputs, and
		// the merge; this process only computes leased cells, so every
		// grid and output flag belongs on the -serve side.
		if err := runWorkerMode(*workerURL, *workerName); err != nil {
			fatal(err)
		}
		return
	}

	if *sweep {
		if *mergeOnly {
			if err := runMergeOnly(*outDir); err != nil {
				fatal(err)
			}
			return
		}
		datasets := allDatasets
		if !*all {
			d, err := core.ParseDataset(*dataset)
			if err != nil {
				fatal(err)
			}
			datasets = []core.Dataset{d}
		}
		axes, err := collectAxisFlags()
		if err != nil {
			fatal(err)
		}
		var axisOpts []experiment.Option
		for _, a := range axes {
			axisOpts = append(axisOpts, experiment.Axes(a))
		}
		if err := runSweep(sweepFlags{
			datasets:  datasets,
			days:      *days,
			seed:      *seed,
			replicas:  *replicas,
			parallel:  *parallel,
			lossScale: *lossScale,
			edgeShare: *edgeShare,
			axisOpts:  axisOpts,
			workload:  *workload,
			cells:     *cells,
			resume:    *resume,
			outDir:    *outDir,
			traceDir:  *traceTo,
			serve:     *serve,
			leaseTTL:  *leaseTTL,
		}); err != nil {
			fatal(err)
		}
		return
	}

	axes, err := collectAxisFlags()
	if err != nil {
		fatal(err)
	}
	if *all {
		for _, d := range allDatasets {
			if err := runDataset(d, *days, *seed, *outDir, "", *workload, axes); err != nil {
				fatal(err)
			}
		}
		printFigure6(*outDir)
		return
	}
	d, err := core.ParseDataset(*dataset)
	if err != nil {
		fatal(err)
	}
	if err := runDataset(d, *days, *seed, *outDir, *traceTo, *workload, axes); err != nil {
		fatal(err)
	}
	if d == core.RON2003 {
		printFigure6(*outDir)
	}
}

// parsePositiveFloat parses one profile-override value. The substrate
// only honors LossScale/EdgeShare when > 0 (netsim treats non-positive
// values as the calibrated default, which would silently turn a sweep
// axis into a mislabeled baseline), so non-positive values are errors.
func parsePositiveFloat(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if v <= 0 {
		return 0, fmt.Errorf("value %g must be > 0", v)
	}
	return v, nil
}

// profileVariants crosses LossScale × EdgeShare overrides into named
// profile variants. The (1,1) point is the calibrated default and keeps
// an empty name.
func profileVariants(lossScales, edgeShares []float64) []core.ProfileVariant {
	var out []core.ProfileVariant
	for _, ls := range lossScales {
		for _, es := range edgeShares {
			if ls == 1 && es == 1 {
				out = append(out, core.ProfileVariant{})
				continue
			}
			p := netsim.DefaultProfile()
			p.LossScale = ls
			p.EdgeShare = es
			out = append(out, core.ProfileVariant{
				Name:    fmt.Sprintf("ls%g-es%g", ls, es),
				Profile: p,
			})
		}
	}
	return out
}

type sweepFlags struct {
	datasets             []core.Dataset
	days                 float64
	seed                 uint64
	replicas, parallel   int
	lossScale, edgeShare string
	// axisOpts carries the registry-derived axis flags (every axis
	// whose flag departed from its default), already parsed.
	axisOpts         []experiment.Option
	workload         bool
	cells            string
	resume           bool
	outDir, traceDir string
	// serve, when non-empty, runs the sweep as a fleet coordinator on
	// that address; leaseTTL is the cell lease lifetime it grants.
	// onServe, when non-nil, additionally receives the bound address —
	// how tests with port 0 join in-process workers.
	serve    string
	leaseTTL time.Duration
	onServe  func(addr string)
}

// runSweep builds an experiment from the flags and runs it: per-cell
// progress lines as cells finish, one merged report per complete grid
// point, and — under -out — per-cell and merged output directories, a
// checksummed snapshot of every finished cell, and a sweep.json
// manifest that -merge-only and ronreport -sweep consume. With -cells
// only the matching shard runs; with -resume, cells whose
// snapshot already exists are reused instead of recomputed.
func runSweep(f sweepFlags) error {
	ls, err := experiment.ParseList("lossscale", f.lossScale, parsePositiveFloat)
	if err != nil {
		return err
	}
	es, err := experiment.ParseList("edgeshare", f.edgeShare, parsePositiveFloat)
	if err != nil {
		return err
	}

	opts := []experiment.Option{
		experiment.Datasets(f.datasets...),
		experiment.Days(f.days),
		experiment.Seed(f.seed),
		experiment.Replicas(f.replicas),
		experiment.Parallel(f.parallel),
		experiment.Axes(experiment.ProfileAxis(profileVariants(ls, es)...)),
		experiment.Warn(func(format string, args ...any) { fmt.Printf(format, args...) }),
	}
	opts = append(opts, f.axisOpts...)
	if f.workload {
		opts = append(opts, experiment.Workload(experiment.DefaultWorkloadConfig()))
	}
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
		// Campaigns run on the workers, so per-cell trace sinks in this
		// process would never fire; refuse rather than silently write an
		// empty trace directory.
		if f.traceDir != "" {
			return errors.New("-trace is incompatible with -serve: traces are written where cells run; use -trace on a local sweep")
		}
		opts = append(opts,
			experiment.Remote(f.serve),
			experiment.RemoteLeaseTTL(f.leaseTTL),
			experiment.RemoteReady(func(addr string) {
				fmt.Printf("coordinator listening on %s\njoin workers with: ronsim -sweep -worker %s\n", addr, addr)
				if f.onServe != nil {
					f.onServe(addr)
				}
			}),
		)
	}

	// Per-cell trace writers. The Configure hook (serial, at expansion)
	// only records the intended path; the file is opened lazily on the
	// first record, so skipped shard cells and snapshot-reused cells
	// never clobber trace files written by an earlier or remote run.
	// Each sink touches only its own cellTrace, so no locking is needed
	// even though sinks run on worker goroutines.
	type cellTrace struct {
		path string
		file *os.File
		w    *trace.Writer
		err  error
	}
	traces := map[int]*cellTrace{}
	closeTraces := func() error {
		var first error
		for _, ct := range traces {
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
	if f.traceDir != "" {
		if err := os.MkdirAll(f.traceDir, 0o755); err != nil {
			return err
		}
		// Trace files open lazily (so shards and resumes never clobber
		// other runs' files), which would defer an unwritable-directory
		// error until after hours of compute; probe writability now.
		probe, err := os.CreateTemp(f.traceDir, ".writable*")
		if err != nil {
			return fmt.Errorf("-trace directory is not writable: %w", err)
		}
		probe.Close()
		os.Remove(probe.Name())
		opts = append(opts, experiment.Configure(func(c core.Cell, cfg *core.Config) {
			ct := &cellTrace{path: filepath.Join(f.traceDir, c.Name()+".trc")}
			traces[c.Index] = ct
			cfg.TraceSink = func(r trace.Record) {
				if ct.err != nil {
					return
				}
				if ct.w == nil {
					ct.file, ct.err = os.Create(ct.path)
					if ct.err != nil {
						return
					}
					ct.w, ct.err = trace.NewWriter(ct.file)
					if ct.err != nil {
						return
					}
				}
				ct.err = ct.w.Append(r)
			}
		}))
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
		fmt.Printf("[%3d/%3d] cell %-36s seed %-20d %s\n",
			done, total, r.Cell.Name(), r.Cell.Seed, status)
		if f.outDir != "" && r.Err == nil && figErr == nil {
			dir := filepath.Join(f.outDir, core.CellsDirName, r.Cell.Name())
			if figErr = writeFigures(dir, r.Cell.Dataset, r.Res); figErr == nil {
				wroteCells++
			}
		}
	}))

	e, err := experiment.New(opts...)
	if err != nil {
		return err
	}
	gridCells, err := e.Cells()
	if err != nil {
		closeTraces()
		return err
	}
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
	fmt.Printf("=== sweep: %d cells (%.2f virtual days each), base seed %d%s ===\n",
		total, f.days, f.seed, shard)

	res, err := e.Run()
	closeErr := closeTraces()
	if err != nil {
		return err
	}
	if closeErr != nil {
		return closeErr
	}
	if figErr != nil {
		return figErr
	}
	fmt.Printf("\nsweep finished in %.1fs on %d workers (%d cells reused)\n\n",
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
			fmt.Printf("=== %s: incomplete (missing %s) ===\n",
				g.Name(), strings.Join(missing, ", "))
			continue
		}
		fmt.Printf("=== merged %s: %d replicas ===\n%s\n",
			g.Name(), len(g.Cells), g.Merged.Report())
	}
	if incomplete > 0 {
		fmt.Printf("%d grid points are incomplete; run the remaining shards against the same spec, combine the %s/ directories, then `ronsim -sweep -merge-only -out ...`\n",
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
		fmt.Printf("wrote %d cell and %d merged output directories under %s\n",
			wroteCells, wroteMerged, f.outDir)
	}

	// The manifest lands next to the figure output, or next to the
	// traces when -out was omitted, so merge-only mode and ronreport
	// -sweep always have a directory to read. It covers the FULL grid,
	// so a shard's manifest lets the coordinator see what is missing.
	manifestDir := f.outDir
	if manifestDir == "" {
		manifestDir = f.traceDir
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
	fmt.Printf("wrote manifest %s\n", filepath.Join(manifestDir, core.ManifestName))
	return nil
}

// runMergeOnly rebuilds merged/ from whatever completed cell snapshots
// exist under dir — its own run's, a resumed run's, or shards copied in
// from other machines — and reports the grid points still missing
// cells. Rebuilt tables are byte-identical to a single-machine sweep
// because the snapshots round-trip aggregator state exactly and
// replicas merge in the same order. Custom-axis cells restore through
// the axis registry, so any axis this binary registers merges like a
// built-in one.
func runMergeOnly(dir string) error {
	if dir == "" {
		return errors.New("-merge-only needs -out pointing at a sweep output directory")
	}
	m, err := experiment.LoadManifest(dir)
	if err != nil {
		return err
	}
	fmt.Printf("merge-only: %d grid points in %s\n\n",
		len(m.Groups), filepath.Join(dir, core.ManifestName))
	merged := 0
	var incomplete []string
	var missingNames []string
	for g, cells := range m.RestoredGroups(dir) {
		var results []*core.Result
		var missing []string
		for ci, rc := range cells {
			if rc.Err == nil {
				results = append(results, rc.Res)
				continue
			}
			// Name the cell by its grid coordinates, not just its
			// label: the coordinates are what an operator pastes back
			// into axis flags to re-run exactly the missing work.
			c := g.Cells[ci]
			if errors.Is(rc.Err, fs.ErrNotExist) {
				missing = append(missing, fmt.Sprintf("%s [%s]", c.Name, g.CellCoords(ci)))
			} else {
				missing = append(missing, fmt.Sprintf("%s [%s] (%v)", c.Name, g.CellCoords(ci), rc.Err))
			}
			missingNames = append(missingNames, c.Name)
		}
		if len(missing) > 0 {
			incomplete = append(incomplete, g.Name)
			fmt.Printf("=== %s: MISSING %d/%d cells ===\n", g.Name, len(missing), len(g.Cells))
			for _, ms := range missing {
				fmt.Printf("    %s\n", ms)
			}
			fmt.Println()
			continue
		}
		mergedRes, err := core.MergeResults(results)
		if err != nil {
			return fmt.Errorf("group %s: %w", g.Name, err)
		}
		d, err := core.ParseDataset(g.Dataset)
		if err != nil {
			return fmt.Errorf("group %s: %w", g.Name, err)
		}
		if err := writeFigures(filepath.Join(dir, core.MergedDirName, g.Name), d, mergedRes); err != nil {
			return err
		}
		merged++
		fmt.Printf("=== merged %s: %d replicas from snapshots ===\n%s\n",
			g.Name, len(results), mergedRes.Report())
	}
	fmt.Printf("merge-only: rebuilt %d/%d merged grid points under %s\n",
		merged, len(m.Groups), filepath.Join(dir, core.MergedDirName))
	if len(incomplete) > 0 {
		fmt.Printf("missing grid points: %s\n", strings.Join(incomplete, ", "))
		fmt.Printf("re-run exactly the missing cells with: -sweep ... -cells %s\n",
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

// applySingleAxes applies single-campaign axis flag values to cfg. A
// value list is a grid, and a grid needs -sweep — rejecting it here
// keeps a forgotten -sweep from silently running only part of one.
func applySingleAxes(cfg *core.Config, axes []core.Axis) error {
	for _, a := range axes {
		flagName := a.Name()
		if def, ok := core.LookupAxis(a.Name()); ok && def.Flag != "" {
			flagName = def.Flag
		}
		vals := a.Values()
		if len(vals) != 1 {
			return fmt.Errorf("-%s: a single campaign takes one value per axis; value lists need -sweep", flagName)
		}
		if err := a.Apply(vals[0], cfg); err != nil {
			return fmt.Errorf("-%s: %w", flagName, err)
		}
	}
	return nil
}

func runDataset(d core.Dataset, days float64, seed uint64, outDir, traceTo string, workload bool, axes []core.Axis) error {
	cfg := core.DefaultConfig(d, days)
	cfg.Seed = seed
	if workload {
		cfg.Workload = core.DefaultWorkloadConfig()
	}
	if err := applySingleAxes(&cfg, axes); err != nil {
		return err
	}

	var traceW *trace.Writer
	if traceTo != "" {
		f, err := os.Create(traceTo)
		if err != nil {
			return err
		}
		defer f.Close()
		traceW, err = trace.NewWriter(f)
		if err != nil {
			return err
		}
		cfg.TraceSink = func(r trace.Record) { _ = traceW.Append(r) }
	}

	start := time.Now()
	fmt.Printf("=== %s: simulating %.2f virtual days (seed %d) ===\n", d, cfg.Days, seed)
	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("(wall time %.1fs)\n\n%s\n", time.Since(start).Seconds(), res.Report())

	// Figures as inline CDF overlays.
	names := res.Agg.Methods()
	fmt.Println(analysis.RenderCDFOverlay(
		"Figure 2: per-path long-term loss rate CDF (percent, direct path)",
		0, 7, 15, []string{"direct"}, []*analysis.CDF{res.Figure2(50)}))
	fmt.Println(analysis.RenderCDFOverlay(
		"Figure 3: 20-minute loss-rate CDF per method (fraction)",
		0, 1, 11, names, res.Figure3()))
	f4names, f4cdfs := res.Figure4()
	if len(f4cdfs) > 0 {
		fmt.Println(analysis.RenderCDFOverlay(
			"Figure 4: per-path conditional loss probability CDF (percent)",
			0, 100, 11, f4names, f4cdfs))
	}
	fmt.Println(analysis.RenderCDFOverlay(
		"Figure 5: per-path mean latency CDF, paths over 50 ms (ms)",
		0, 300, 13, names, res.Figure5()))

	if outDir != "" {
		if err := writeFigures(outDir, d, res); err != nil {
			return err
		}
	}
	if traceW != nil {
		if err := traceW.Flush(); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace records to %s\n", traceW.Count(), traceTo)
	}
	return nil
}

// writeFigures emits gnuplot-style data files, one per figure.
func writeFigures(dir string, d core.Dataset, res *core.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, content string) error {
		path := filepath.Join(dir, fmt.Sprintf("%s-%s", strings.ToLower(d.String()), name))
		return os.WriteFile(path, []byte(content), 0o644)
	}
	names := res.Agg.Methods()
	if err := write("fig2.dat", analysis.RenderCDF("per-path loss % CDF",
		res.Figure2(50).Grid(0, 7, 100))); err != nil {
		return err
	}
	if err := write("fig3.dat", analysis.RenderCDFOverlay("20-min loss CDF",
		0, 1, 101, names, res.Figure3())); err != nil {
		return err
	}
	f4names, f4cdfs := res.Figure4()
	if len(f4cdfs) > 0 {
		if err := write("fig4.dat", analysis.RenderCDFOverlay("per-path CLP CDF",
			0, 100, 101, f4names, f4cdfs)); err != nil {
			return err
		}
	}
	if err := write("fig5.dat", analysis.RenderCDFOverlay("latency CDF (>50ms paths)",
		0, 300, 121, names, res.Figure5())); err != nil {
		return err
	}
	if err := write("table5.txt",
		analysis.RenderTable5(res.Table5Rows(), res.LatencyLabel())); err != nil {
		return err
	}
	if err := write("table6.txt", analysis.RenderTable6(res.Agg.HighLossHours())); err != nil {
		return err
	}
	// The workload and resilience tables only exist for cells that ran
	// those layers; writing them unconditionally would break
	// byte-identity between grids produced before and after these files
	// existed.
	if ws := res.Agg.Workload(); ws != nil && ws.HasData() {
		if err := write("workload.txt", analysis.RenderWorkloadTable(ws.Table())); err != nil {
			return err
		}
	}
	if rs := res.Agg.Resilience(); rs != nil && rs.HasData() {
		return write("resilience.txt", analysis.RenderResilienceTable(rs.Table()))
	}
	return nil
}

// printFigure6 renders the §5.3 design space.
func printFigure6(outDir string) {
	p := costmodel.Defaults()
	ds, err := p.Space(21)
	if err != nil {
		fatal(err)
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
	fmt.Println(b.String())
	if outDir != "" {
		_ = os.WriteFile(filepath.Join(outDir, "fig6.dat"), []byte(b.String()), 0o644)
	}
}

func frac(v float64) string {
	if v < 0 {
		return "infeasible"
	}
	return fmt.Sprintf("%.4f", v)
}

// profiles tracks the active profiling state for stopProfiles.
var profiles struct {
	cpu     *os.File
	memPath string
}

// startProfiles begins CPU profiling and records the heap-profile
// destination; either path may be empty.
func startProfiles(cpuPath, memPath string) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		profiles.cpu = f
	}
	profiles.memPath = memPath
	return nil
}

// stopProfiles flushes the CPU profile and writes the heap profile. It
// is safe to call more than once.
func stopProfiles() {
	if profiles.cpu != nil {
		pprof.StopCPUProfile()
		profiles.cpu.Close()
		profiles.cpu = nil
	}
	if profiles.memPath != "" {
		f, err := os.Create(profiles.memPath)
		if err == nil {
			runtime.GC() // up-to-date allocation statistics
			_ = pprof.WriteHeapProfile(f)
			f.Close()
		}
		profiles.memPath = ""
	}
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "ronsim:", err)
	os.Exit(1)
}
