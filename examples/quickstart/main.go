// Quickstart: the experiment builder API in one page. Builds a small
// sweep grid — two hysteresis settings × a custom axis defined right
// here × two seed replicas — runs it over all cores with a multi-path
// + FEC application workload riding along, and prints each grid
// point's merged Table 5 and delivered-frame workload table.
//
// The custom "gapscale" axis is the point of the demo: a new grid
// dimension is one Register call with one AxisDef — how a value
// parses, labels a cell, and configures a campaign. The engine names,
// seeds, shards, snapshots, and serializes its cells exactly like the
// built-in axes, with no engine changes. (The same pattern at CLI
// scale: cmd/internal/tablerefresh, whose -tablerefresh flag ronsim
// derives from this registry.)
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/experiment"
	"repro/internal/analysis"
)

// The gapscale axis scales the §4.1 measurement-probe pacing: value
// "2" doubles the random inter-probe gap, halving the sampling rate.
// Registering it makes the axis reconstructable from manifests and
// snapshots (and would derive a -gapscale flag in a CLI).
func init() {
	experiment.Register(experiment.AxisDef{
		Name:    "gapscale",
		Usage:   "comma-separated measurement-gap scale factors (1 = paper pacing)",
		Default: "1",
		Parse: func(s string) (experiment.AxisValue, error) {
			scale, err := strconv.Atoi(s)
			if err != nil || scale < 1 {
				return "", fmt.Errorf("gap scale %q is not a positive integer", s)
			}
			return experiment.AxisValue(strconv.Itoa(scale)), nil
		},
		Label: func(v experiment.AxisValue) string {
			if v == "1" {
				return "" // the default: stays out of cell names and snapshots
			}
			return "-g" + string(v)
		},
		Apply: func(v experiment.AxisValue, cfg *experiment.Config) {
			scale, _ := strconv.Atoi(string(v))
			cfg.MeasureGapMin *= time.Duration(scale)
			cfg.MeasureGapMax *= time.Duration(scale)
		},
	})
}

func main() {
	e, err := experiment.New(
		experiment.Datasets(experiment.RONnarrow),
		experiment.Days(0.02), // ~29 virtual minutes per cell
		experiment.Seed(42),
		experiment.Replicas(2),
		experiment.AxisValues("hysteresis", "0", "0.25"),
		experiment.AxisValues("gapscale", "1", "2"),
		// Every cell also runs an application workload: two streams of
		// periodic frames, FEC-encoded and striped across the two best
		// link-disjoint overlay paths, with delivered-frame loss and
		// latency accounted next to the probe tables.
		experiment.Workload(func() experiment.WorkloadConfig {
			w := experiment.DefaultWorkloadConfig()
			w.Streams = 2
			return w
		}()),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cells, err := e.Cells()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("grid: %d cells (replicas merge per grid point), coordinate-derived seeds\n", len(cells))
	for _, c := range cells {
		fmt.Printf("  %-28s seed %d\n", c.Name(), c.Seed)
	}

	res, err := e.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nran %d cells on %d workers in %.1fs\n", res.Selected, res.Parallel, res.Wall.Seconds())

	for gi := range res.Groups {
		g := &res.Groups[gi]
		fmt.Printf("\n=== %s: %d replicas merged ===\n%s", g.Name(), len(g.Cells),
			analysis.RenderTable5(g.Merged.Table5Rows(), g.Merged.LatencyLabel()))
		if ws := g.Merged.Agg.Workload(); ws != nil && ws.HasData() {
			fmt.Printf("%s", analysis.RenderWorkloadTable(ws.Table()))
		}
	}
}
