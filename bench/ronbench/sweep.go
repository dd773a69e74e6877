package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/experiment"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/resultstore"
)

// clients is the closed loop's width on every workload: compute
// goroutines for the local sweeps, fleet workers (one HTTP connection
// each) for fleet_drain.
const clients = 2

// grid describes one sweep workload's cell grid.
type grid struct {
	datasets []core.Dataset
	axes     func() []core.Axis
	workload bool // base experiment.Workload(DefaultWorkloadConfig())
	days     float64
	replicas int
}

// paperGrid is the paper's own job: both testbeds, hysteresis off and
// on, replicas merged into Tables 5 and 6.
func paperGrid(days float64, replicas int) grid {
	return grid{
		datasets: []core.Dataset{core.RONnarrow, core.RON2003},
		axes:     func() []core.Axis { return []core.Axis{core.HysteresisAxis(0, 0.1)} },
		days:     days,
		replicas: replicas,
	}
}

// streamGrid drives the same layers through the application workload
// and scripted failures: frame events, k-best disjoint paths, fault
// injection, and the workload and resilience snapshot sections.
func streamGrid(days float64, replicas int) grid {
	return grid{
		datasets: []core.Dataset{core.RONnarrow},
		axes: func() []core.Axis {
			return []core.Axis{core.RedundancyAxis(0.25, 1), core.ScenarioAxis("outage", "storm")}
		},
		workload: true,
		days:     days,
		replicas: replicas,
	}
}

// options builds the experiment options for the grid at a base seed.
func (g grid) options(seed uint64) []experiment.Option {
	opts := []experiment.Option{
		experiment.Datasets(g.datasets...),
		experiment.Days(g.days),
		experiment.Seed(seed),
		experiment.Replicas(g.replicas),
		experiment.Axes(g.axes()...),
	}
	if g.workload {
		opts = append(opts, experiment.Workload(experiment.DefaultWorkloadConfig()))
	}
	return opts
}

// outFile is one rendered output file of a merged grid point.
type outFile struct {
	name   string
	render func() string
}

// writeGroupOutputs writes one merged grid point's tables and figure
// data under dir, the same files `ronsim -sweep -out` leaves in
// merged/<group>/. On a traced run each render is a span under parent,
// tagged with the group's first cell.
func writeGroupOutputs(tr *tracer, parent, cell int, dir string, d core.Dataset, res *core.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	prefix := strings.ToLower(d.String()) + "-"
	write := func(name string, render func() string) error {
		id := tr.begin("analysis.render", parent, cell)
		content := render()
		tr.end(id)
		return os.WriteFile(filepath.Join(dir, prefix+name), []byte(content), 0o644)
	}
	names := res.Agg.Methods()
	files := []outFile{
		{"fig2.dat", func() string {
			return analysis.RenderCDF("per-path loss % CDF", res.Figure2(50).Grid(0, 7, 100))
		}},
		{"fig3.dat", func() string {
			return analysis.RenderCDFOverlay("20-min loss CDF", 0, 1, 101, names, res.Figure3())
		}},
		{"fig5.dat", func() string {
			return analysis.RenderCDFOverlay("latency CDF (>50ms paths)", 0, 300, 121, names, res.Figure5())
		}},
		{"table5.txt", func() string { return analysis.RenderTable5(res.Table5Rows(), res.LatencyLabel()) }},
		{"table6.txt", func() string { return analysis.RenderTable6(res.Agg.HighLossHours()) }},
	}
	if f4names, f4cdfs := res.Figure4(); len(f4cdfs) > 0 {
		files = append(files, outFile{"fig4.dat", func() string {
			return analysis.RenderCDFOverlay("per-path CLP CDF", 0, 100, 101, f4names, f4cdfs)
		}})
	}
	// The workload and resilience tables exist only for cells that ran
	// those layers, as in ronsim.
	if ws := res.Agg.Workload(); ws != nil && ws.HasData() {
		files = append(files, outFile{"workload.txt", func() string { return analysis.RenderWorkloadTable(ws.Table()) }})
	}
	if rs := res.Agg.Resilience(); rs != nil && rs.HasData() {
		files = append(files, outFile{"resilience.txt", func() string { return analysis.RenderResilienceTable(rs.Table()) }})
	}
	for _, f := range files {
		if err := write(f.name, f.render); err != nil {
			return err
		}
	}
	return nil
}

// writeMerged writes every complete group's outputs under
// out/merged/<group>/.
func writeMerged(out string, res *core.SweepResult) error {
	for gi := range res.Groups {
		g := &res.Groups[gi]
		if !g.Complete() {
			return fmt.Errorf("group %s did not merge", g.Name())
		}
		dir := filepath.Join(out, core.MergedDirName, g.Name())
		if err := writeGroupOutputs(nil, -1, -1, dir, g.Dataset, g.Merged); err != nil {
			return err
		}
	}
	return nil
}

// mergedDigest hashes out/merged.
func mergedDigest(out string) (string, error) {
	return treeDigest(filepath.Join(out, core.MergedDirName), resultstore.SegmentFileName)
}

// sweepOutcome is what one grid run leaves behind, whichever driver
// ran it.
type sweepOutcome struct {
	res    *core.SweepResult
	stamps []time.Duration // Progress callback times since the run's start
}

// runLocal runs the grid in-process on `parallel` goroutines, through
// to merged tables and manifest on disk.
func runLocal(g grid, seed uint64, out string, parallel int) (*sweepOutcome, error) {
	start := time.Now()
	o := &sweepOutcome{}
	opts := append(g.options(seed),
		experiment.Parallel(parallel),
		experiment.Output(out),
		experiment.Progress(func(core.CellResult) { o.stamps = append(o.stamps, time.Since(start)) }),
	)
	e, err := experiment.New(opts...)
	if err != nil {
		return nil, err
	}
	if o.res, err = e.Run(); err != nil {
		return nil, err
	}
	if err := writeMerged(out, o.res); err != nil {
		return nil, err
	}
	if err := e.WriteManifest(o.res, out, nil); err != nil {
		return nil, err
	}
	return o, nil
}

// perWorkerGaps turns serialized completion stamps into per-cell
// times. With w workers each busy back to back, the cell that completed
// k-th started when the (k−w)-th completed (its worker came free), so
// its time is stamp[k] − stamp[k−w]; the first w cells started at 0.
func perWorkerGaps(stamps []time.Duration, w int) []float64 {
	out := make([]float64, len(stamps))
	for k, t := range stamps {
		if k >= w {
			t -= stamps[k-w]
		}
		out[k] = t.Seconds()
	}
	return out
}

// countOutcome tallies a finished grid: cells, failures, probes.
func countOutcome(res *core.SweepResult) (cells, failed int, probes int64) {
	for i := range res.Cells {
		c := &res.Cells[i]
		cells++
		if c.Err != nil || c.Res == nil {
			failed++
			continue
		}
		probes += c.Res.RONProbes + c.Res.MeasureProbes
	}
	return cells, failed, probes
}

// sweepWorkload is paper_sweep and stream_scenario_sweep.
type sweepWorkload struct {
	e    *env
	g    grid
	dirs tempDirs
}

func (w *sweepWorkload) setupCount() int { return w.e.setupPasses(3) }

// Seven repetitions of 32 cells pool 224 per-cell samples, so
// cell_p95_ms has its 200 on every run, however slow the box.
func (w *sweepWorkload) reps() int { return 7 }

// setup is a whole untimed repetition in a fresh directory: it expands
// the grid, builds per-worker arenas, and faults in the heap the timed
// repetitions reuse.
func (w *sweepWorkload) setup() (time.Duration, error) {
	r, err := w.rep(0)
	return r.wall, err
}

func (w *sweepWorkload) rep(i int) (repResult, error) {
	m := startMeter()
	out, err := w.dirs.fresh(fmt.Sprintf("rep%d", i))
	if err != nil {
		return repResult{}, err
	}
	defer os.RemoveAll(out)
	o, err := runLocal(w.g, w.e.seed, out, clients)
	if err != nil {
		return repResult{}, err
	}
	r := repResult{measured: m.stop()}
	r.ops, r.failed, r.probes = countOutcome(o.res)
	r.samples = perWorkerGaps(o.stamps, clients)
	if r.digest, err = mergedDigest(out); err != nil {
		return r, err
	}
	r.disk, err = treeBytes(out)
	return r, err
}

func (w *sweepWorkload) finish(res *result, reps []repResult) { finishCells(res, reps) }
func (w *sweepWorkload) close()                               { w.dirs.removeAll() }

// finishCells derives the cell-shaped metrics shared by every
// simulation workload.
func finishCells(res *result, reps []repResult) {
	var cellsPerS, probesPerS, diskPerCell, samples []float64
	for _, r := range reps {
		cellsPerS = append(cellsPerS, float64(r.ops)/r.wall.Seconds())
		probesPerS = append(probesPerS, float64(r.probes)/r.wall.Seconds())
		if r.disk > 0 {
			diskPerCell = append(diskPerCell, float64(r.disk)/1e3/float64(r.ops))
		}
		samples = append(samples, r.samples...)
	}
	res.metrics["cells_per_s"] = median(cellsPerS)
	res.metrics["probes_per_s"] = median(probesPerS)
	res.metrics["cell_p50_ms"] = median(samples) * 1e3
	tailMetric(res, "cell_p95_ms", samples)
	if len(diskPerCell) > 0 {
		res.metrics["disk_kb_per_cell"] = diskPerCell[0]
		for _, d := range diskPerCell {
			if d != diskPerCell[0] {
				res.fail("disk_kb_per_cell differs between repetitions (%v vs %v); it is a count and must repeat", d, diskPerCell[0])
				break
			}
		}
	}
}

// tempDirs hands out scratch directories under one root inside the
// checkout and removes the root at the end.
type tempDirs struct{ root string }

func (t *tempDirs) fresh(name string) (string, error) {
	dir := filepath.Join(t.root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func (t *tempDirs) removeAll() { os.RemoveAll(t.root) }
