package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
)

// Table5Rows composes the dataset's Table 5 rows in the paper's order.
// For RON2003 and RONnarrow, the "direct*" and "lat*" rows are inferred
// from the first packets of "direct rand" and "lat loss", exactly as the
// paper's asterisks denote.
func (r *Result) Table5Rows() []analysis.MethodTotals {
	a := r.Agg
	var rows []analysis.MethodTotals
	addInferred := func(pair string, copy int, name string) {
		if m := a.MethodIndex(pair); m >= 0 {
			rows = append(rows, a.InferredSingle(m, copy, name))
		}
	}
	add := func(name string) {
		if m := a.MethodIndex(name); m >= 0 {
			rows = append(rows, a.Totals(m))
		}
	}
	switch r.Config.Dataset {
	case RONwide:
		// Table 7 order.
		for _, name := range []string{"direct", "rand", "lat", "loss",
			"direct direct", "rand rand", "direct rand", "direct lat",
			"direct loss", "rand lat", "rand loss", "lat loss"} {
			add(name)
		}
	default:
		addInferred("direct rand", 0, "direct*")
		addInferred("lat loss", 0, "lat*")
		add("loss")
		add("direct rand")
		add("lat loss")
		add("direct direct")
		add("dd 10 ms")
		add("dd 20 ms")
	}
	return rows
}

// LatencyLabel returns "lat" for one-way campaigns and "RTT" for
// round-trip ones (Table 7).
func (r *Result) LatencyLabel() string {
	if r.Config.roundTrip() {
		return "RTT"
	}
	return "lat"
}

// DirectMethodIndex returns the aggregator index whose first copy rides
// the direct path, used as the reference for per-path figures: the
// explicit "direct" method when present, else "direct rand".
func (r *Result) DirectMethodIndex() int {
	if m := r.Agg.MethodIndex("direct"); m >= 0 {
		return m
	}
	if m := r.Agg.MethodIndex("direct rand"); m >= 0 {
		return m
	}
	return 0
}

// Figure2MinProbes is the observation count a path needs to enter
// Figure 2's CDF in the rendered figures.
const Figure2MinProbes = 50

// Figure2 returns the per-path long-term loss CDF (percent) for the
// direct path, as in Figure 2. Paths need minProbes observations to
// count.
func (r *Result) Figure2(minProbes int) *analysis.CDF {
	return r.Agg.PathLossCDF(r.DirectMethodIndex(), minProbes)
}

// Figure3 returns the 20-minute loss-rate CDFs for every method, in
// method order (Figure 3 overlays them).
func (r *Result) Figure3() []*analysis.CDF {
	out := make([]*analysis.CDF, len(r.Methods))
	for m := range r.Methods {
		out[m] = r.Agg.WindowRateCDF(m)
	}
	return out
}

// Figure4 returns the per-path CLP CDFs for the two-copy methods of
// Figure 4: direct direct, direct rand, dd 10 ms, dd 20 ms (those present
// in the campaign).
func (r *Result) Figure4() (names []string, cdfs []*analysis.CDF) {
	for _, name := range []string{"direct direct", "direct rand", "dd 10 ms", "dd 20 ms"} {
		if m := r.Agg.MethodIndex(name); m >= 0 {
			names = append(names, name)
			cdfs = append(cdfs, r.Agg.CLPByPathCDF(m))
		}
	}
	return names, cdfs
}

// Figure5MinLatency is Figure 5's path filter: "paths whose latency is
// over 50 ms".
const Figure5MinLatency = 50 * time.Millisecond

// Figure5 returns per-path mean latency CDFs (ms) for every method,
// restricted to paths whose direct-path latency exceeds
// Figure5MinLatency.
func (r *Result) Figure5() []*analysis.CDF {
	ref := r.DirectMethodIndex()
	out := make([]*analysis.CDF, len(r.Methods))
	for m := range r.Methods {
		out[m] = r.Agg.PathLatencyCDF(m, ref, Figure5MinLatency)
	}
	return out
}

// Artifact is one rendered output file of a campaign: its base name
// and its text.
type Artifact struct {
	Name, Text string
}

// Artifacts renders the campaign's output files in write order: the
// Figure 2–5 CDF series (fig4.dat only when a two-copy method ran),
// then <name>.txt for each of the result's table sections.
func (r *Result) Artifacts() []Artifact {
	names := r.Agg.Methods()
	arts := []Artifact{
		{"fig2.dat", analysis.RenderCDF("per-path loss % CDF", r.Figure2(Figure2MinProbes).Grid(0, 7, 100))},
		{"fig3.dat", analysis.RenderCDFOverlay("20-min loss CDF", 0, 1, 101, names, r.Figure3())},
	}
	if f4names, f4cdfs := r.Figure4(); len(f4cdfs) > 0 {
		arts = append(arts, Artifact{"fig4.dat",
			analysis.RenderCDFOverlay("per-path CLP CDF", 0, 100, 101, f4names, f4cdfs)})
	}
	arts = append(arts, Artifact{"fig5.dat",
		analysis.RenderCDFOverlay("latency CDF (>50ms paths)", 0, 300, 121, names, r.Figure5())})
	for _, s := range StoreTables(r).Sections() {
		arts = append(arts, Artifact{s.Name + ".txt", s.Text})
	}
	return arts
}

// Report renders the campaign's tables as text: a header, then each
// table section under its title.
func (r *Result) Report() string {
	var b strings.Builder
	if r.MergedReplicas > 1 {
		fmt.Fprintf(&b, "dataset %s: %d hosts, %d paths, %d replicas × %.1f virtual days merged\n",
			r.Config.Dataset, r.Testbed.N(), r.Testbed.Paths(),
			r.MergedReplicas, r.Config.Days)
	} else {
		fmt.Fprintf(&b, "dataset %s: %d hosts, %d paths, %.1f virtual days, seed %d\n",
			r.Config.Dataset, r.Testbed.N(), r.Testbed.Paths(), r.Config.Days,
			r.Config.Seed)
	}
	fmt.Fprintf(&b, "probes: %d measurement, %d routing; route changes: %d\n\n",
		r.MeasureProbes, r.RONProbes, r.RouteChanges)
	for i, s := range StoreTables(r).Sections() {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "%s\n%s", s.Title, s.Text)
	}
	return b.String()
}
