package repro

import (
	"fmt"
	"testing"

	"repro/experiment"
	"repro/internal/analysis"
	"repro/internal/core"
)

// goldenSweep is the locked grid's option set: RONnarrow × profile ×
// hysteresis × probe interval × loss window, two replicas each.
// "ls4-es1" exercises the profile axis's name-only reconstruction path
// — the same one the manifest uses.
func goldenSweep(extra ...experiment.Option) []experiment.Option {
	return append([]experiment.Option{
		experiment.Datasets(experiment.RONnarrow),
		experiment.Days(0.02),
		experiment.Seed(42),
		experiment.Replicas(2),
		experiment.AxisValues("profile", "", "ls4-es1"),
		experiment.AxisValues("hysteresis", "0", "0.25"),
		experiment.AxisValues("probeinterval", "0", "30s"),
		experiment.AxisValues("losswindow", "0", "25"),
	}, extra...)
}

// sweepGoldens renders a sweep's locked artifacts: "grid", the cell
// names and coordinate-derived seeds, and per grid point its merged
// Table 5 and Table 6, followed by the workload table when the cells
// ran one.
func sweepGoldens(res *core.SweepResult) map[string]string {
	grid := ""
	for _, c := range res.Cells {
		grid += fmt.Sprintf("%s %d\n", c.Cell.Name(), c.Cell.Seed)
	}
	arts := map[string]string{"grid": grid}
	for gi := range res.Groups {
		m := res.Groups[gi].Merged
		text := analysis.RenderTable5(m.Table5Rows(), m.LatencyLabel()) +
			analysis.RenderTable6(m.Agg.HighLossHours())
		if ws := m.Agg.Workload(); ws != nil && ws.HasData() {
			text += analysis.RenderWorkloadTable(ws.Table())
		}
		arts[res.Groups[gi].Name()] = text
	}
	return arts
}

// TestGoldenSweepDigests locks a fixed-seed sweep the way
// TestGoldenDigests locks single campaigns, against goldens recorded
// from the pre-axis engine (fixed SweepSpec fields, hand-rolled flag
// parsing). The sweep is built through the public experiment API, so
// the test enforces the axis redesign's claim end to end: axes-as-data
// produce byte-identical grids — same names, same seeds, same merged
// bytes — as the fixed fields they replaced, including the profile
// axis's reconstruction of "ls4-es1" from its name alone.
func TestGoldenSweepDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the golden sweep runs 32 compressed campaigns")
	}
	e, err := experiment.New(goldenSweep()...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep", sweepGoldens(res))
}

// TestGoldenWorkloadSweepDigests locks a workload-enabled sweep: a base
// multi-path + FEC workload on every cell, with the redundancy axis
// sweeping the parity budget. Its goldens add the rendered workload
// table to the probe tables, so the lock covers delivered-frame
// accounting, per-variant CDFs, and replica merging end to end. It is
// deliberately a separate set from the workload-free grid's, whose
// goldens predate this layer and must never move.
func TestGoldenWorkloadSweepDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the golden workload sweep runs 8 compressed campaigns")
	}
	w := experiment.DefaultWorkloadConfig()
	w.Streams = 2
	e, err := experiment.New(
		experiment.Datasets(experiment.RONnarrow),
		experiment.Days(0.02),
		experiment.Seed(42),
		experiment.Replicas(2),
		experiment.Workload(w),
		experiment.AxisValues("redundancy", "0", "0.5"),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "workload-sweep", sweepGoldens(res))
}
