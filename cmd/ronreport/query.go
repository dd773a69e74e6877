package main

// The query engine over a sweep's columnar result store (-store):
// filter rows with axis predicates (-query), bucket them (-group-by),
// pull metric columns (-metrics) with group means and quantiles
// (-quantile), re-render any paper table from a stored row (-render;
// byte-identical to the files under merged/), and answer CDF-level
// questions the flat vector can't by drilling into the rows' backing
// snapshots (-drill). The flat path never opens a snapshot: a million-
// cell sweep answers "how does totlp move along the redundancy axis"
// from the segment file alone.

import (
	"cmp"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/experiment"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/resultstore"
)

// storeQuery is the parsed -store flag family.
type storeQuery struct {
	root     string // sweep output dir (snapshot resolution base)
	segPath  string
	reindex  bool
	query    string
	groupBy  string
	metrics  string
	quantile float64 // <0 means unset
	render   string
	drill    string
}

// resolveStore maps the -store argument to (root dir, segment path): a
// directory means its results.seg, a file path is used verbatim.
func resolveStore(path string) (root, seg string) {
	if strings.HasSuffix(path, ".seg") {
		return filepath.Dir(path), path
	}
	return path, resultstore.SegmentPath(path)
}

func runStore(w io.Writer, q storeQuery) error {
	if q.reindex {
		if err := reindexStore(w, q.root, q.segPath); err != nil {
			return err
		}
		if q.render == "" && q.metrics == "" && q.drill == "" && q.query == "" {
			return nil
		}
	}
	seg, err := resultstore.ReadSegment(q.segPath)
	if err != nil {
		return err
	}
	if seg.TruncatedBytes > 0 {
		fmt.Fprintf(w, "(store: ignored %d bytes of torn tail)\n", seg.TruncatedBytes)
	}
	rows := seg.Unique()
	preds, err := resultstore.ParsePredicates(q.query)
	if err != nil {
		return err
	}
	sel := resultstore.Select(rows, preds)
	if len(sel) == 0 {
		return fmt.Errorf("query %q selected no rows (store has %d)", q.query, len(rows))
	}
	switch {
	case q.render != "":
		return renderRows(w, sel, q.render)
	case q.drill != "":
		return drillRows(w, q.root, sel, q.drill, q.quantile)
	case q.metrics != "":
		return printMetrics(w, sel, q, seg.Columns)
	default:
		listRows(w, sel)
		return nil
	}
}

// renderRows re-renders a table section (or an alias: overview, hours)
// from each selected row. A single selected row prints the bare table,
// byte-identical to the matching file under merged/ (or a cell's own
// output dir), so CI can diff the two; multiple rows are separated by
// === name === headers.
func renderRows(w io.Writer, sel []*resultstore.Row, kind string) error {
	name := cmp.Or(map[string]string{"overview": "table5", "hours": "table6"}[kind], kind)
	if !resultstore.IsSection(name) {
		return fmt.Errorf("unknown -render kind %q (want overview, table6, workload, or resilience)", kind)
	}
	for _, r := range sel {
		t, err := resultstore.RowTables(r)
		if err != nil {
			return fmt.Errorf("row %s: %w", r.Name, err)
		}
		secs := t.Sections()
		i := slices.IndexFunc(secs, func(s resultstore.Section) bool { return s.Name == name })
		if i < 0 {
			return fmt.Errorf("row %s carries no %s table", r.Name, name)
		}
		if len(sel) > 1 {
			fmt.Fprintf(w, "=== %s ===\n", r.Name)
		}
		fmt.Fprint(w, secs[i].Text)
	}
	return nil
}

// printMetrics prints metric columns: raw per-row values without
// -group-by, per-bucket count/mean (plus the requested quantile) with
// it. A column no selected row carries is an error, not a run of "-" or
// n=0: it is nearly always a misspelling.
func printMetrics(w io.Writer, sel []*resultstore.Row, q storeQuery, segCols []string) error {
	cols := splitMethods(q.metrics)
	for _, col := range cols {
		if !anyRowHas(sel, col) {
			return unknownColumn(col, segCols)
		}
	}
	if q.groupBy == "" && q.quantile < 0 {
		for _, r := range sel {
			fmt.Fprintf(w, "%s", r.Name)
			for _, col := range cols {
				if v, ok := resultstore.MetricValue(r, col); ok {
					fmt.Fprintf(w, " %s=%g", col, v)
				} else {
					fmt.Fprintf(w, " %s=-", col)
				}
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	for _, g := range resultstore.GroupBy(sel, q.groupBy) {
		key := "(all)"
		if q.groupBy != "" {
			key = q.groupBy + "=" + g.Key
		}
		for _, col := range cols {
			vals := resultstore.MetricValues(g.Rows, col)
			if len(vals) == 0 {
				fmt.Fprintf(w, "%s %s n=0\n", key, col)
				continue
			}
			mean := 0.0
			for _, v := range vals {
				mean += v
			}
			mean /= float64(len(vals))
			fmt.Fprintf(w, "%s %s n=%d mean=%g", key, col, len(vals), mean)
			if q.quantile >= 0 {
				fmt.Fprintf(w, " p%g=%g", 100*q.quantile,
					resultstore.Quantile(vals, q.quantile))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

func anyRowHas(rows []*resultstore.Row, col string) bool {
	for _, r := range rows {
		if _, ok := resultstore.MetricValue(r, col); ok {
			return true
		}
	}
	return false
}

// unknownColumn names the missing column and lists the segment's
// columns of its family (the prefix through the first '.': t5., t6.,
// wl., rs., win20.), or the families there are when it has none.
func unknownColumn(col string, segCols []string) error {
	family := func(c string) string { return c[:strings.IndexByte(c, '.')+1] }
	var same, families []string
	for _, c := range segCols {
		switch f := family(c); {
		case f == "":
		case f == family(col):
			same = append(same, c)
		case !slices.Contains(families, f):
			families = append(families, f)
		}
	}
	if len(same) > 0 {
		return fmt.Errorf("no selected row has a metric column %q; the store's %s columns are: %s",
			col, family(col), strings.Join(same, ", "))
	}
	sort.Strings(families)
	return fmt.Errorf("no selected row has a metric column %q; the store's column families are: %s",
		col, strings.Join(families, " "))
}

// listRows prints a one-line inventory per selected row.
func listRows(w io.Writer, sel []*resultstore.Row) {
	for _, r := range sel {
		fmt.Fprintf(w, "%-5s %-40s dataset=%s replicas=%d", r.Kind, r.Name, r.Dataset, r.Replicas)
		for _, kv := range r.Axes {
			fmt.Fprintf(w, " %s=%s", kv.Key, kv.Value)
		}
		fmt.Fprintf(w, " metrics=%d\n", r.NumMetrics())
	}
}

// drillRows answers a CDF-level question by reading the selected cell
// rows' snapshots and reading the requested distribution off their
// merged aggregator: one distribution per grid point (Row.Group), in
// group-name order, its cells merged in name order, so cells of
// different grid points are never pooled. A row is read as the cell of
// its name in the grid the sweep's manifest records, through the
// admission check every snapshot read passes (Sweep.ReadCell). Specs:
//
//	pathloss           per-path long-term loss CDF, direct method (Fig 2)
//	win20:<method>     20-minute loss-rate CDF (Fig 3)
//	clp:<method>       per-path conditional loss CDF (Fig 4)
//	latency:<method>   per-path latency CDF over >50 ms paths (Fig 5)
func drillRows(w io.Writer, root string, sel []*resultstore.Row, spec string, quantile float64) error {
	var cells []*resultstore.Row
	for _, r := range sel {
		if r.Kind == resultstore.KindCell && r.Snapshot != "" {
			cells = append(cells, r)
		}
	}
	if len(cells) == 0 {
		return fmt.Errorf("drill-down needs snapshot-backed cell rows; none selected (add kind=cell to the query)")
	}
	m, err := experiment.LoadManifest(root)
	if err != nil {
		return err
	}
	s, err := m.Sweep(nil, nil)
	if err != nil {
		return err
	}
	index := map[string]int{}
	for _, c := range s.Cells() {
		index[c.Name()] = c.Index
	}
	slices.SortFunc(cells, func(a, b *resultstore.Row) int {
		return cmp.Or(cmp.Compare(a.Group, b.Group), cmp.Compare(a.Name, b.Name))
	})
	for len(cells) > 0 {
		n := 1
		for n < len(cells) && cells[n].Group == cells[0].Group {
			n++
		}
		results := make([]*core.Result, 0, n)
		for _, r := range cells[:n] {
			i, ok := index[r.Name]
			if !ok {
				return fmt.Errorf("cell %s: not in the grid of %s", r.Name, filepath.Join(root, core.ManifestName))
			}
			res, err := s.ReadCell(i, root)
			if err != nil {
				return fmt.Errorf("cell %s: %w", r.Name, err)
			}
			results = append(results, res)
		}
		if err := drillGroup(w, cells[0].Group, results, spec, quantile); err != nil {
			return err
		}
		cells = cells[n:]
	}
	return nil
}

// drillGroup prints one grid point's distribution, over its cells'
// results, for drillRows.
func drillGroup(w io.Writer, group string, results []*core.Result, spec string, quantile float64) error {
	what, method, _ := strings.Cut(spec, ":")
	merged, err := core.MergeResults(results)
	if err != nil {
		return err
	}
	merged.Agg.Flush()
	var cdf *analysis.CDF
	var kept string
	switch what {
	case "pathloss":
		cdf = merged.Figure2(core.Figure2MinProbes)
		// Figure 2's probe minimum drops short-lived paths; say how
		// many, so quantiles over a handful of paths are not misread.
		kept = fmt.Sprintf("; %d of %d paths with ≥ %d probes", cdf.N(), merged.Testbed.Paths(), core.Figure2MinProbes)
	case "win20", "clp", "latency":
		m := merged.Agg.MethodIndex(method)
		if m < 0 {
			return fmt.Errorf("drill %s: unknown method %q (have: %s)",
				what, method, strings.Join(merged.Agg.Methods(), ", "))
		}
		switch what {
		case "win20":
			cdf = merged.Agg.WindowRateCDF(m)
		case "clp":
			cdf = merged.Agg.CLPByPathCDF(m)
		case "latency":
			cdf = merged.Agg.PathLatencyCDF(m, merged.DirectMethodIndex(), core.Figure5MinLatency)
		}
	default:
		return fmt.Errorf("unknown -drill spec %q (want pathloss, win20:<m>, clp:<m>, or latency:<m>)", spec)
	}
	fmt.Fprintf(w, "drill %s in %s over %d cells (%d samples%s)\n", spec, group, len(results), cdf.N(), kept)
	if quantile >= 0 {
		fmt.Fprintf(w, "p%g=%g\n", 100*quantile, cdf.Quantile(quantile))
		return nil
	}
	fmt.Fprintf(w, "mean=%g p50=%g p90=%g p95=%g p99=%g max=%g\n",
		cdf.Mean(), cdf.Quantile(0.5), cdf.Quantile(0.9), cdf.Quantile(0.95),
		cdf.Quantile(0.99), cdf.Max())
	return nil
}
