package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/resultstore"
)

// storeShape sizes store_query.
type storeShape struct {
	groups   int // grid points; each stores replicas cell rows and one group row
	replicas int
	queries  int // canned queries per repetition; 1 in 10 re-renders tables
}

func (s storeShape) rows() int { return s.groups * (s.replicas + 1) }

func storeShapeOf(e *env) storeShape {
	if e.tiny {
		return storeShape{groups: 40, replicas: 4, queries: 20}
	}
	// 4000 grid points × (24 cells + 1 group row) = 10⁵ rows.
	return storeShape{groups: 4000, replicas: 24, queries: 40}
}

// The synthetic grid's axis values. A group's coordinates are digits of
// its index in this mixed radix, so every combination is equally
// populated and a predicate's selectivity is known by construction.
var (
	genDatasets   = []string{"ronnarrow", "ron2003", "ronwide"}
	genHysteresis = []string{"0", "0.1", "0.25"}
	genScenarios  = []string{"0", "outage", "storm", "flap"}
	genRedundancy = []string{"0", "0.25", "0.5", "1"}
)

// genGroup is one synthetic grid point's identity.
type genGroup struct {
	name                                      string
	dataset, hysteresis, scenario, redundancy string
	batch                                     string
}

// rowGen synthesises the segment's rows as a pure function of (seed,
// row index): identities come from the index's digits, and each varying
// metric is the template cell's value scaled by a hash-drawn factor. It
// holds no per-row state, so the brute-force check recomputes any value
// it needs from the same function the append pass used.
type rowGen struct {
	seed     uint64
	shape    storeShape
	cfg      core.Config // the template cell's
	template *resultstore.Row
	varies   []bool // per template metric: does it vary per row?
	groups   []genGroup
	// renders are the template cell's tables rendered directly from the
	// campaign result; group rows carry the template's metrics verbatim,
	// so RowTables → Render on any stored group row must reproduce them.
	renders string
}

// variedSuffixes picks the metric columns that vary per row: rates and
// latencies, never structure (order, pair, counts) that RowTables needs
// intact.
var variedSuffixes = []string{".1lp", ".2lp", ".totlp", ".clp", ".losspct", ".shardpct", ".availpct", ".maskedpct", ".p50", ".p95", ".mean"}

// newRowGen runs one real cell — RONnarrow with the application
// workload and an outage script, so its row carries all four table
// families — and wraps its store row as the template.
func newRowGen(e *env, shape storeShape) (*rowGen, error) {
	wl := core.DefaultWorkloadConfig()
	sweep, err := core.NewSweep(core.SweepSpec{
		Datasets: []core.Dataset{core.RONnarrow},
		Days:     0.02,
		BaseSeed: e.seed,
		Workload: &wl,
		Axes:     []core.Axis{core.ScenarioAxis("outage")},
	})
	if err != nil {
		return nil, err
	}
	cell := sweep.Cells()[0]
	res, err := core.NewArena().RunRetained(sweep.Config(0))
	if err != nil {
		return nil, err
	}
	g := &rowGen{seed: e.seed, shape: shape, cfg: sweep.Config(0), template: core.CellStoreRow(cell, res)}
	g.renders = renderTables(core.StoreTables(res))
	g.varies = make([]bool, len(g.template.Metrics))
	for i, m := range g.template.Metrics {
		for _, suf := range variedSuffixes {
			if strings.HasSuffix(m.Col, suf) {
				g.varies[i] = true
			}
		}
	}
	g.groups = make([]genGroup, shape.groups)
	for i := range g.groups {
		d := i
		pick := func(vals []string) string {
			v := vals[d%len(vals)]
			d /= len(vals)
			return v
		}
		gr := genGroup{
			dataset:    pick(genDatasets),
			hysteresis: pick(genHysteresis),
			scenario:   pick(genScenarios),
			redundancy: pick(genRedundancy),
		}
		gr.batch = fmt.Sprintf("b%03d", d)
		gr.name = fmt.Sprintf("%s-h%s-sc%s-rd%s-%s", gr.dataset, gr.hysteresis, gr.scenario, gr.redundancy, gr.batch)
		g.groups[i] = gr
	}
	return g, nil
}

// renderTables renders every table a Tables carries, concatenated.
func renderTables(t resultstore.Tables) string {
	var b strings.Builder
	b.WriteString(analysis.RenderTable5(t.Overview, t.LatencyLabel))
	b.WriteString(analysis.RenderTable6(t.Hours))
	if t.Workload != nil {
		b.WriteString(analysis.RenderWorkloadTable(t.Workload))
	}
	if t.Resilience != nil {
		b.WriteString(analysis.RenderResilienceTable(t.Resilience))
	}
	return b.String()
}

// splitmix is the SplitMix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// isGroupRow reports whether row i is its grid point's merged row (the
// last of each run of replicas+1).
func (g *rowGen) isGroupRow(i int) bool { return i%(g.shape.replicas+1) == g.shape.replicas }

func (g *rowGen) groupOf(i int) *genGroup { return &g.groups[i/(g.shape.replicas+1)] }

// value is metric column c of row i: the template's value, scaled on
// cell rows by a factor in [0.5, 1.5) for the columns that vary.
func (g *rowGen) value(i, c int) float64 {
	v := g.template.Metrics[c].Val
	if !g.varies[c] || g.isGroupRow(i) {
		return v
	}
	h := splitmix(g.seed ^ splitmix(uint64(i)<<16^uint64(c)))
	return v * (0.5 + float64(h>>11)/(1<<53))
}

// fill writes row i into r, reusing its slices.
func (g *rowGen) fill(r *resultstore.Row, i int) {
	gr := g.groupOf(i)
	t := g.template
	*r = resultstore.Row{
		Kind: resultstore.KindCell, Group: gr.name, Dataset: gr.dataset,
		Replica: int32(i % (g.shape.replicas + 1)), Replicas: 1, Hosts: t.Hosts,
		Seed: splitmix(g.seed + uint64(i)), Days: t.Days,
		RONProbes: t.RONProbes, MeasureProbes: t.MeasureProbes, RouteChanges: t.RouteChanges,
		Axes: r.Axes[:0], Metrics: r.Metrics[:0],
	}
	if g.isGroupRow(i) {
		r.Kind, r.Name, r.Replica, r.Replicas, r.Seed = resultstore.KindGroup, gr.name, -1, int32(g.shape.replicas), 0
	} else {
		r.Name = fmt.Sprintf("%s-r%02d", gr.name, r.Replica)
		r.Snapshot = core.CellSnapshotRelPath(r.Name)
	}
	r.Axes = append(r.Axes,
		resultstore.AxisKV{Key: "batch", Value: gr.batch},
		resultstore.AxisKV{Key: "hysteresis", Value: gr.hysteresis},
		resultstore.AxisKV{Key: "redundancy", Value: gr.redundancy},
		resultstore.AxisKV{Key: "scenario", Value: gr.scenario},
	)
	for c := range t.Metrics {
		r.Metrics = append(r.Metrics, resultstore.Metric{Col: t.Metrics[c].Col, Val: g.value(i, c)})
	}
}

// field is the brute-force twin of resultstore.FieldValue for the
// fields the canned queries use.
func (g *rowGen) field(i int, name string) string {
	gr := g.groupOf(i)
	switch name {
	case "kind":
		if g.isGroupRow(i) {
			return resultstore.KindGroup
		}
		return resultstore.KindCell
	case "group":
		return gr.name
	case "dataset":
		return gr.dataset
	case "hysteresis":
		return gr.hysteresis
	case "scenario":
		return gr.scenario
	case "redundancy":
		return gr.redundancy
	case "batch":
		return gr.batch
	}
	return ""
}

// cannedQuery is one ronreport-style question: filter, group, take a
// quantile of one metric per bucket; render queries instead re-render
// one group row's tables.
type cannedQuery struct {
	where   string // predicate list as typed after -query
	groupBy string
	col     int // template metric index
	q       float64
	render  bool
}

// bucket is one group-by bucket's answer.
type bucket struct {
	key string
	n   int
	val float64
}

// queryForms are the canned queries' shapes: which axes are pinned (to
// a seed-drawn value), which field buckets the result. The shapes — and
// with them each query's selectivity and cost — are the same for every
// seed; the seed only picks the values, the metric column and the
// quantile, so per-query times are comparable across seeds.
var queryForms = []struct {
	pin     []string
	groupBy string
}{
	{nil, "scenario"},                                             // every cell row
	{[]string{"scenario"}, "hysteresis"},                          // 1 in 4
	{[]string{"hysteresis"}, ""},                                  // 1 in 3, one bucket
	{[]string{"dataset", "hysteresis"}, "redundancy"},             // 1 in 9
	{[]string{"redundancy", "scenario"}, "dataset"},               // 1 in 16
	{[]string{"dataset", "redundancy", "scenario"}, "batch"},      // 1 in 48, many buckets
	{[]string{"dataset"}, "batch"},                                // 1 in 3, many buckets
	{[]string{"dataset", "hysteresis", "scenario"}, "redundancy"}, // 1 in 36
	{[]string{"scenario", "hysteresis"}, "dataset"},               // 1 in 12; "*" on a third axis
}

// axisValues maps a query field to the synthetic grid's values for it.
var axisValues = map[string][]string{
	"dataset": genDatasets, "hysteresis": genHysteresis,
	"scenario": genScenarios, "redundancy": genRedundancy,
}

// queries builds the run's canned queries. Patterns are exact values or
// "*", so the brute-force matcher needs no glob code. Every tenth query
// re-renders one group row's tables.
func (g *rowGen) queries() []cannedQuery {
	var cols []int
	for c, v := range g.varies {
		if v {
			cols = append(cols, c)
		}
	}
	quantiles := []float64{0.5, 0.9, 0.95}
	out := make([]cannedQuery, g.shape.queries)
	for k := range out {
		h := splitmix(g.seed*0x9E37 + uint64(k))
		draw := func(n int) int {
			h = splitmix(h)
			return int(h % uint64(n))
		}
		if k%10 == 9 {
			gr := &g.groups[draw(len(g.groups))]
			out[k] = cannedQuery{where: "kind=group,group=" + gr.name, render: true}
			continue
		}
		form := queryForms[k%len(queryForms)]
		where := []string{"kind=cell"}
		for _, axis := range form.pin {
			vals := axisValues[axis]
			where = append(where, axis+"="+vals[draw(len(vals))])
		}
		if k%len(queryForms) == len(queryForms)-1 {
			where = append(where, "redundancy=*")
		}
		out[k] = cannedQuery{
			where:   strings.Join(where, ","),
			groupBy: form.groupBy,
			col:     cols[draw(len(cols))],
			q:       quantiles[draw(len(quantiles))],
		}
	}
	return out
}

// answer runs one canned query against the opened store through the
// query engine's public functions, exactly as cmd/ronreport composes
// them. On a traced run each call is a span under parent.
func (g *rowGen) answer(tr *tracer, parent, k int, rows []*resultstore.Row, q cannedQuery) ([]bucket, string, error) {
	preds, err := resultstore.ParsePredicates(q.where)
	if err != nil {
		return nil, "", err
	}
	id := tr.begin("resultstore.select", parent, k)
	sel := resultstore.Select(rows, preds)
	tr.end(id)
	if q.render {
		if len(sel) != 1 {
			return nil, "", fmt.Errorf("render query %q matched %d rows, want 1", q.where, len(sel))
		}
		id = tr.begin("resultstore.rowtables", parent, k)
		t, err := resultstore.RowTables(sel[0])
		tr.end(id)
		if err != nil {
			return nil, "", err
		}
		id = tr.begin("analysis.render", parent, k)
		out := renderTables(*t)
		tr.end(id)
		return nil, out, nil
	}
	col := g.template.Metrics[q.col].Col
	id = tr.begin("resultstore.groupby", parent, k)
	groups := resultstore.GroupBy(sel, q.groupBy)
	tr.end(id)
	id = tr.begin("resultstore.quantile", parent, k)
	var out []bucket
	for _, grp := range groups {
		vals := resultstore.MetricValues(grp.Rows, col)
		out = append(out, bucket{grp.Key, len(vals), resultstore.Quantile(vals, q.q)})
	}
	tr.end(id)
	return out, "", nil
}

// expect recomputes a canned query's answer by brute force from the
// generator: its own predicate matching, bucketing, and nearest-rank
// quantile over values drawn straight from value().
func (g *rowGen) expect(q cannedQuery) ([]bucket, string) {
	if q.render {
		return nil, g.renders
	}
	type term struct{ field, want string }
	var terms []term
	for _, t := range strings.Split(q.where, ",") {
		f, w, _ := strings.Cut(t, "=")
		if w != "*" {
			terms = append(terms, term{f, w})
		}
	}
	byKey := map[string][]float64{}
rows:
	for i := 0; i < g.shape.rows(); i++ {
		for _, t := range terms {
			if g.field(i, t.field) != t.want {
				continue rows
			}
		}
		key := ""
		if q.groupBy != "" {
			key = g.field(i, q.groupBy)
		}
		byKey[key] = append(byKey[key], g.value(i, q.col))
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []bucket
	for _, k := range keys {
		vals := byKey[k]
		sort.Float64s(vals)
		idx := int(q.q * float64(len(vals)))
		if idx >= len(vals) {
			idx = len(vals) - 1
		}
		out = append(out, bucket{k, len(vals), vals[idx]})
	}
	return out, ""
}

func sameBuckets(a, b []bucket) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// storeQuery is the store_query workload: writes (the append pass)
// beside reads (open, then canned queries) on the result store.
type storeQuery struct {
	e     *env
	shape storeShape
	dirs  tempDirs
	gen   *rowGen
	qs    []cannedQuery
	// wantBuckets/wantRender are the brute-force answers, computed once
	// per run after the warm-up repetition's clock has stopped.
	wantBuckets [][]bucket
	wantRender  []string
	// Traced runs only: the tracer, and whether to bracket the open
	// with collections to size the decoded segment's heap.
	tr          *tracer
	measureHeap bool
}

func newStoreQuery(e *env, dirs tempDirs) *storeQuery {
	return &storeQuery{e: e, shape: storeShapeOf(e), dirs: dirs}
}

// One pass: it writes, reads and queries the whole segment once, which
// costs as much as two timed repetitions.
func (w *storeQuery) setupCount() int { return 1 }

// Five repetitions of 40 queries pool the 200 samples query_p95_ms
// needs.
func (w *storeQuery) reps() int { return minReps }

// setup runs the template cell, builds the generator, and runs one
// whole untimed repetition.
func (w *storeQuery) setup() (time.Duration, error) {
	t0 := time.Now()
	gen, err := newRowGen(w.e, w.shape)
	if err != nil {
		return 0, err
	}
	w.gen, w.qs = gen, gen.queries()
	w.wantBuckets = nil
	synth := time.Since(t0)
	r, err := w.rep(0)
	return synth + r.wall, err
}

// verify computes the expected answers on first use.
func (w *storeQuery) verify() {
	if w.wantBuckets != nil {
		return
	}
	w.wantBuckets = make([][]bucket, len(w.qs))
	w.wantRender = make([]string, len(w.qs))
	for k, q := range w.qs {
		w.wantBuckets[k], w.wantRender[k] = w.gen.expect(q)
	}
}

// appendBatch is how many Appends share one span on a traced run.
const appendBatch = 1000

func (w *storeQuery) rep(i int) (repResult, error) {
	m := startMeter()
	dir, err := w.dirs.fresh(fmt.Sprintf("rep%d", i))
	if err != nil {
		return repResult{}, err
	}
	defer os.RemoveAll(dir)
	path := resultstore.SegmentPath(dir)
	n := w.shape.rows()
	tr := w.tr
	root := tr.begin("rep", -1, -1)

	// Writes: one Append per row, as the sweep drivers do.
	t0 := time.Now()
	st, err := resultstore.Open(path)
	if err != nil {
		return repResult{}, err
	}
	var row resultstore.Row
	for lo := 0; lo < n; lo += appendBatch {
		id := tr.begin("resultstore.append_batch", root, -1)
		for k := lo; k < lo+appendBatch && k < n; k++ {
			w.gen.fill(&row, k)
			if err := st.Append(&row); err != nil {
				st.Close()
				return repResult{}, err
			}
		}
		tr.end(id)
	}
	if err := st.Close(); err != nil {
		return repResult{}, err
	}
	appendS := time.Since(t0).Seconds()

	// Open: decode the segment and dedupe by identity.
	var heapBefore uint64
	if w.measureHeap {
		id := tr.begin("trace.heap_measure", root, -1)
		heapBefore = liveHeap()
		tr.end(id)
	}
	t0 = time.Now()
	id := tr.begin("resultstore.read_segment", root, -1)
	seg, err := resultstore.ReadSegment(path)
	tr.end(id)
	if err != nil {
		return repResult{}, err
	}
	id = tr.begin("resultstore.unique", root, -1)
	rows := seg.Unique()
	tr.end(id)
	openS := time.Since(t0).Seconds()
	extra := map[string]float64{"append_s": appendS, "open_s": openS}
	if w.measureHeap {
		id := tr.begin("trace.heap_measure", root, -1)
		extra["heap_bytes"] = float64(liveHeap() - heapBefore)
		tr.end(id)
	}

	// Reads: the canned queries. Their CPU and allocation are metered on
	// their own: they are the workload's operations, and the cost of one
	// must not depend on how many share a repetition with the append pass.
	gotBuckets := make([][]bucket, len(w.qs))
	gotRender := make([]string, len(w.qs))
	samples := make([]float64, len(w.qs))
	qm := startMeter()
	for k, q := range w.qs {
		t0 = time.Now()
		qid := tr.begin("query", root, k)
		gotBuckets[k], gotRender[k], err = w.gen.answer(tr, qid, k, rows, q)
		tr.end(qid)
		samples[k] = time.Since(t0).Seconds()
		if err != nil {
			return repResult{}, err
		}
	}
	r := repResult{opCost: qm.stop(), ops: len(w.qs), samples: samples, extra: extra}
	r.measured = m.stop()
	tr.end(root)

	// Untimed: check every answer against the brute-force recomputation.
	w.verify()
	if len(rows) != n || seg.TruncatedBytes != 0 {
		return r, fmt.Errorf("store holds %d unique rows (%d torn bytes), want %d", len(rows), seg.TruncatedBytes, n)
	}
	var parts []string
	for k := range w.qs {
		if !sameBuckets(gotBuckets[k], w.wantBuckets[k]) || gotRender[k] != w.wantRender[k] {
			r.failed++
		}
		parts = append(parts, fmt.Sprint(gotBuckets[k]), gotRender[k])
	}
	r.digest = bytesDigest(parts...)
	info, err := os.Stat(path)
	if err != nil {
		return r, err
	}
	r.disk = info.Size()
	return r, nil
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (w *storeQuery) finish(res *result, reps []repResult) {
	var appendRate, openS, samples []float64
	for _, r := range reps {
		appendRate = append(appendRate, float64(w.shape.rows())/r.extra["append_s"])
		openS = append(openS, r.extra["open_s"])
		samples = append(samples, r.samples...)
	}
	res.metrics["append_rows_per_s"] = median(appendRate)
	res.metrics["open_s"] = median(openS)
	res.metrics["query_p50_ms"] = median(samples) * 1e3
	tailMetric(res, "query_p95_ms", samples)
	res.note("segment: %d rows, %.1f MB on disk, %d metric columns per row; %d queries per repetition",
		w.shape.rows(), float64(reps[0].disk)/1e6, len(w.gen.template.Metrics), len(w.qs))
	if res.failed > 0 {
		res.fail("%d query answers differ from the brute-force recomputation", res.failed)
	}
}

func (w *storeQuery) close() { w.dirs.removeAll() }

// traceStoreQuery is the -trace run of store_query: one untraced
// repetition for reference, then traced repetitions whose appends,
// open and query steps are spans.
func traceStoreQuery(e *env, name string) (*result, error) {
	w := newStoreQuery(e, tempDirs{root: e.work})
	defer w.close()
	res := newResult(name, true)
	m := res.metrics
	start := time.Now()

	if _, err := w.setup(); err != nil { // template cell, generator, warm-up repetition
		return nil, err
	}
	ref, err := w.rep(1)
	if err != nil {
		return nil, err
	}
	res.digest = ref.digest

	w.tr, w.measureHeap = newTracer(), true
	var walls, heaps, readMBs []float64
	for i := 2; len(walls) == 0 || (!e.tiny && time.Since(start).Seconds() < e.seconds); i++ {
		r, err := w.rep(i)
		if err != nil {
			return nil, err
		}
		walls = append(walls, r.wall.Seconds())
		heaps = append(heaps, r.extra["heap_bytes"]/float64(w.shape.rows()))
		readMBs = append(readMBs, float64(r.disk)/1e6)
		res.attempted += r.ops
		res.failed += r.failed
		if r.digest != ref.digest {
			res.fail("traced repetition digests %s, the untraced one %s", r.digest, ref.digest)
		}
	}
	spans := w.tr.snapshot()
	med := spanMedians(spans)
	m["resultstore.append_us"] = us(med["resultstore.append_batch"]) / appendBatch
	m["resultstore.read_mb_per_s"] = median(readMBs) / med["resultstore.read_segment"].Seconds()
	m["resultstore.unique_ms"] = ms(med["resultstore.unique"])
	m["resultstore.heap_bytes_per_row"] = median(heaps)
	m["resultstore.select_ms"] = ms(med["resultstore.select"])
	m["resultstore.groupby_ms"] = ms(med["resultstore.groupby"])
	m["resultstore.quantile_ms"] = ms(med["resultstore.quantile"])
	m["resultstore.rowtables_us"] = us(med["resultstore.rowtables"])
	m["analysis.render_ms"] = ms(med["analysis.render"])
	// The traced repetitions also pay two collections around the open
	// (heap_bytes_per_row); that is tracing cost and shows as overhead.
	m["trace.coverage_pct"] = coveragePct(spans, "rep", 1, ref.wall.Seconds(), len(walls))
	m["trace.overhead_pct"] = 100 * (median(walls) - ref.wall.Seconds()) / ref.wall.Seconds()
	res.note("untraced repetition %.3f s; %d traced, median %.3f s; %d spans",
		ref.wall.Seconds(), len(walls), median(walls), len(spans))

	// The template cell's world gives the simulation layers' unit costs
	// behind the rows this store holds.
	cfg := w.gen.cfg
	w.gen, w.qs = nil, nil // release the generator before the probes allocate
	u := probeUnits(m, cfg, true)
	if err := probeCells(m, cfg, u, 5); err != nil {
		return nil, err
	}
	return res, writeSpans(e, res, w.tr)
}
