package resultstore

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
)

// Tables is the set of render-ready paper tables one result row
// carries: the overview (Table 5 rows + latency label), the high-loss
// hours (Table 6), and — when the campaign measured them — the workload
// and resilience comparisons. It is the one owner of which text
// sections a result has (Sections: result files, reports and `ronreport
// -render`) and which store columns carry them (the schema Flatten and
// RowTables walk, which round-trips floats as raw bits), so every
// rendered table is reproducible from the store byte-for-byte.
type Tables struct {
	Overview     []analysis.MethodTotals
	LatencyLabel string
	Hours        analysis.Table6
	Workload     *analysis.WorkloadTable
	Resilience   *analysis.ResilienceTable
}

// Section is one text table of a result: the name it is written and
// re-rendered under (table5.txt, `-render table5`), the title Report
// prints above it, and its rendered text.
type Section struct {
	Name, Title, Text string
}

// Sections returns the tables' text sections in write order: Table 5
// and Table 6, then the workload and resilience tables exactly when the
// result carries them, so grids without those layers stay
// byte-identical to grids written before the layers existed.
func (t Tables) Sections() []Section {
	// An "RTT" label marks a round-trip campaign, which is RONwide alone
	// (core's Config.roundTrip is Dataset == RONwide): the paper prints
	// its expanded method set as Table 7.
	overview := "Table 5 (one-way loss percentages)"
	if t.LatencyLabel == "RTT" {
		overview = "Table 7 (expanded routing schemes, RTT latencies)"
	}
	out := []Section{
		{"table5", overview, analysis.RenderTable5(t.Overview, t.LatencyLabel)},
		{"table6", "Table 6 (hour-long high-loss periods)", analysis.RenderTable6(t.Hours)},
	}
	if t.Workload != nil {
		out = append(out, Section{"workload", "Workload (delivered application frames)", analysis.RenderWorkloadTable(t.Workload)})
	}
	if t.Resilience != nil {
		out = append(out, Section{"resilience", "Resilience (recovery from injected outages)", analysis.RenderResilienceTable(t.Resilience)})
	}
	return out
}

// IsSection reports whether name is a section some result can carry:
// one of the sections of tables that have every optional table.
func IsSection(name string) bool {
	all := Tables{Workload: new(analysis.WorkloadTable), Resilience: new(analysis.ResilienceTable)}
	return slices.ContainsFunc(all.Sections(), func(s Section) bool { return s.Name == name })
}

// Metric column naming. Method names may contain spaces ("direct
// rand", "dd 10 ms") but never dots, so `<family>.<method>.<field>`
// parses unambiguously by family prefix + last dot. Table 6's
// threshold columns are `t6.<method>.gt<threshold>`, in shortest form:
// its thresholds are whole and below 10⁶, so they print dot-free.
const (
	colRTT        = "t5.rtt"
	colWorstHour  = "t6.worsthour"
	famOverview   = "t5."
	famHours      = "t6."
	famWorkload   = "wl."
	famResilience = "rs."
	sufAbove      = "gt"
	sufOrder      = "order" // order, probes and latns serve two row types
	sufProbes     = "probes"
	sufLatNs      = "latns"
)

// col is one metric column of a table row of type T: the suffix it is
// stored under, and how its value is read from and written back to the
// row. Integers and durations travel as their exact float64 (stored
// counters stay below 2⁵³), floats bit for bit.
type col[T any] struct {
	suffix string
	get    func(*T) float64
	set    func(*T, float64)
}

// num is the column of a numeric field of T.
func num[T any, N ~int | ~int64 | ~float64](suffix string, field func(*T) *N) col[T] {
	return col[T]{suffix,
		func(r *T) float64 { return float64(*field(r)) },
		func(r *T, v float64) { *field(r) = N(v) }}
}

// perScheme lifts the columns of a comparison table's row type R to
// the table H: one copy per row, "bp." (best-path) then "mp."
// (multi-path), in the table's Rows order.
func perScheme[H, R any](rows func(*H) []R, cols ...col[R]) []col[H] {
	var out []col[H]
	for i, scheme := range [...]string{"bp.", "mp."} {
		for _, c := range cols {
			out = append(out, col[H]{scheme + c.suffix,
				func(h *H) float64 { return c.get(&rows(h)[i]) },
				func(h *H, v float64) { c.set(&rows(h)[i], v) }})
		}
	}
	return out
}

// flattenCols appends r's columns, each named prefix + suffix.
func flattenCols[T any](dst []Metric, prefix string, cols []col[T], r *T) []Metric {
	for _, c := range cols {
		dst = append(dst, Metric{prefix + c.suffix, c.get(r)})
	}
	return dst
}

// setCol stores v in r's column with the given suffix; a suffix the
// schema lacks is ignored.
func setCol[T any](cols []col[T], r *T, suffix string, v float64) {
	for _, c := range cols {
		if c.suffix == suffix {
			c.set(r, v)
			return
		}
	}
}

// overviewRow is one Table 5 row with its render position.
type overviewRow struct {
	analysis.MethodTotals
	order int
}

var overviewCols = []col[overviewRow]{
	num(sufOrder, func(r *overviewRow) *int { return &r.order }),
	num(sufProbes, func(r *overviewRow) *int64 { return &r.Probes }),
	num("1lp", func(r *overviewRow) *float64 { return &r.FirstLossPct }),
	num("2lp", func(r *overviewRow) *float64 { return &r.SecondLossPct }),
	num("totlp", func(r *overviewRow) *float64 { return &r.TotalLossPct }),
	num("clp", func(r *overviewRow) *float64 { return &r.CondLossPct }),
	num(sufLatNs, func(r *overviewRow) *time.Duration { return &r.MeanLatency }),
	{"pair", func(r *overviewRow) float64 { return b2f(r.Pair) },
		func(r *overviewRow, v float64) { r.Pair = v != 0 }},
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// hoursRow is one method's Table 6 row: its position and path-hours,
// then its per-threshold counts, which the gt columns carry.
type hoursRow struct {
	order   int
	periods int64
	thr     []float64
	counts  []int64
}

var hoursCols = []col[hoursRow]{
	num(sufOrder, func(r *hoursRow) *int { return &r.order }),
	num("periods", func(r *hoursRow) *int64 { return &r.periods }),
}

var workloadCols = append([]col[analysis.WorkloadTable]{
	num("k", func(t *analysis.WorkloadTable) *int { return &t.DataShards }),
	num("m", func(t *analysis.WorkloadTable) *int { return &t.ParityShards }),
	num("paths", func(t *analysis.WorkloadTable) *int { return &t.Paths }),
	num("reconfail", func(t *analysis.WorkloadTable) *int64 { return &t.ReconstructFailures }),
	num("overhead", func(t *analysis.WorkloadTable) *float64 { return &t.Overhead }),
}, perScheme(func(t *analysis.WorkloadTable) []analysis.WorkloadTableRow { return t.Rows[:] },
	num("frames", func(r *analysis.WorkloadTableRow) *int64 { return &r.FramesSent }),
	num("losspct", func(r *analysis.WorkloadTableRow) *float64 { return &r.FrameLossPct }),
	num("shardpct", func(r *analysis.WorkloadTableRow) *float64 { return &r.ShardLossPct }),
	num(sufLatNs, func(r *analysis.WorkloadTableRow) *time.Duration { return &r.MeanLatency }),
	num("p95latms", func(r *analysis.WorkloadTableRow) *float64 { return &r.P95LatencyMs }),
	num("strm50pct", func(r *analysis.WorkloadTableRow) *float64 { return &r.StreamLoss50Pct }),
)...)

var resilienceCols = append([]col[analysis.ResilienceTable]{
	num("outages", func(t *analysis.ResilienceTable) *int64 { return &t.UnderlayOutages }),
}, perScheme(func(t *analysis.ResilienceTable) []analysis.ResilienceTableRow { return t.Rows[:] },
	num(sufProbes, func(r *analysis.ResilienceTableRow) *int64 { return &r.ProbesSent }),
	num("availpct", func(r *analysis.ResilienceTableRow) *float64 { return &r.AvailabilityPct }),
	num("maskedpct", func(r *analysis.ResilienceTableRow) *float64 { return &r.MaskedPct }),
	num("ttrns", func(r *analysis.ResilienceTableRow) *time.Duration { return &r.MeanTTR }),
	num("p95ttrs", func(r *analysis.ResilienceTableRow) *float64 { return &r.P95TTRSeconds }),
)...)

// Flatten appends the tables' metric vector to dst. The emission order
// is deterministic (overview rows in render order, then hours, then
// workload, then resilience), so identical tables produce identical
// vectors.
func (t Tables) Flatten(dst []Metric) []Metric {
	dst = append(dst, Metric{colRTT, b2f(t.LatencyLabel == "RTT")})
	for i := range t.Overview {
		row := overviewRow{t.Overview[i], i}
		dst = flattenCols(dst, famOverview+row.Method+".", overviewCols, &row)
	}
	dst = append(dst, Metric{colWorstHour, t.Hours.WorstHourPct})
	for j, m := range t.Hours.Methods {
		p := famHours + m + "."
		dst = flattenCols(dst, p, hoursCols, &hoursRow{order: j, periods: t.Hours.Periods[j]})
		for k, thr := range t.Hours.Thresholds {
			col := p + sufAbove + strconv.FormatFloat(thr, 'g', -1, 64)
			dst = append(dst, Metric{col, float64(t.Hours.Counts[j][k])})
		}
	}
	if t.Workload != nil {
		dst = flattenCols(dst, famWorkload, workloadCols, t.Workload)
	}
	if t.Resilience != nil {
		dst = flattenCols(dst, famResilience, resilienceCols, t.Resilience)
	}
	return dst
}

// RowTables rebuilds the render-ready tables from a stored row's metric
// vector. Columns outside the table families (drill-down extras like
// win20.*) are ignored. The vector's in-row emission order is the
// round-trip guarantee: thresholds and rows come back in the order they
// were flattened.
func RowTables(r *Row) (*Tables, error) {
	t := &Tables{LatencyLabel: "lat"}
	t5, t6 := map[string]*overviewRow{}, map[string]*hoursRow{}
	var t5names, t6names []string
	for i := range r.NumMetrics() {
		col, val := r.MetricAt(i)
		switch {
		case col == colRTT:
			if val != 0 {
				t.LatencyLabel = "RTT"
			}
		case col == colWorstHour:
			t.Hours.WorstHourPct = val
		case strings.HasPrefix(col, famOverview):
			method, field, ok := splitMethodCol(col[len(famOverview):])
			if !ok {
				return nil, fmt.Errorf("resultstore: bad overview column %q", col)
			}
			row := t5[method]
			if row == nil {
				row = &overviewRow{MethodTotals: analysis.MethodTotals{Method: method}}
				t5[method] = row
				t5names = append(t5names, method)
			}
			setCol(overviewCols, row, field, val)
		case strings.HasPrefix(col, famHours):
			method, field, ok := splitMethodCol(col[len(famHours):])
			if !ok {
				return nil, fmt.Errorf("resultstore: bad hours column %q", col)
			}
			row := t6[method]
			if row == nil {
				row = &hoursRow{}
				t6[method] = row
				t6names = append(t6names, method)
			}
			s, above := strings.CutPrefix(field, sufAbove)
			if !above {
				setCol(hoursCols, row, field, val)
				continue
			}
			thr, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("resultstore: bad hours column %q", col)
			}
			row.thr = append(row.thr, thr)
			row.counts = append(row.counts, int64(val))
		case strings.HasPrefix(col, famWorkload):
			if t.Workload == nil {
				t.Workload = new(analysis.WorkloadTable)
			}
			setCol(workloadCols, t.Workload, col[len(famWorkload):], val)
		case strings.HasPrefix(col, famResilience):
			if t.Resilience == nil {
				t.Resilience = new(analysis.ResilienceTable)
			}
			setCol(resilienceCols, t.Resilience, col[len(famResilience):], val)
		}
	}

	sort.SliceStable(t5names, func(a, b int) bool { return t5[t5names[a]].order < t5[t5names[b]].order })
	for _, m := range t5names {
		t.Overview = append(t.Overview, t5[m].MethodTotals)
	}
	sort.SliceStable(t6names, func(a, b int) bool { return t6[t6names[a]].order < t6[t6names[b]].order })
	for _, m := range t6names {
		row := t6[m]
		if t.Hours.Thresholds == nil {
			t.Hours.Thresholds = row.thr
		} else if len(row.thr) != len(t.Hours.Thresholds) {
			return nil, fmt.Errorf("resultstore: hours threshold mismatch for method %q", m)
		}
		t.Hours.Methods = append(t.Hours.Methods, m)
		t.Hours.Periods = append(t.Hours.Periods, row.periods)
		t.Hours.Counts = append(t.Hours.Counts, row.counts)
	}
	return t, nil
}

// splitMethodCol splits "<method>.<field>" at the last dot.
func splitMethodCol(s string) (method, field string, ok bool) {
	i := strings.LastIndexByte(s, '.')
	if i <= 0 || i == len(s)-1 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}
