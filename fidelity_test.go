package repro

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/resultstore"
)

// The published values: every number of the paper the code depends on,
// stated once, in the table below. Each row names a quantity, gives the
// paper's value and section, says how a committed seed ensemble
// measures it, and how that ensemble is judged against it.
// TestFidelityReport renders the table into docs/FIDELITY.md and into
// PAPER.md's block of published numbers and checks both byte for byte,
// the way checkGolden checks the goldens; GOLDEN_UPDATE=1 rewrites them:
//
//	GOLDEN_UPDATE=1 go test -run TestFidelityReport .
//
// Other tests name a row of this table instead of restating its number.

const (
	fidelityDir = "testdata/fidelity"
	fidelityDoc = "docs/FIDELITY.md"
	paperDoc    = "PAPER.md"

	paperBlockBegin = "<!-- BEGIN published numbers: rendered by TestFidelityReport (fidelity_test.go) -->"
	paperBlockEnd   = "<!-- END published numbers -->"
)

// fidelityEnsembles are the committed seed ensembles, one segment each
// under fidelityDir. A segment holds its sweep's cell and group rows in
// grid order: a live sweep appends rows in completion order, so the
// committed file is the reindexed one, which two reindexes of the same
// directory write identically.
var fidelityEnsembles = []struct{ name, args string }{
	{"ron2003", "-dataset ron2003 -days 2 -replicas 16 -seed 1"},
	{"ronwide", "-dataset ronwide -days 0.5 -replicas 16 -seed 1"},
}

// published is one row of the table. A value row has a numeric paper
// value (lo == hi) or range and a value func; a claim row has a claim,
// or an order of value rows, and a holds func. A row with no ensemble
// says in unjudged why none judges it.
type published struct {
	name    string // how the report and the tests name the row
	section string // the paper's table, figure or section

	paper    float64 // value row: the paper's value, or the bottom of its range
	paperTop float64 // the top of a published range; 0 for one value
	approx   bool    // the paper gives the value as approximate
	unit     string  // "%" or "ms"
	claim    string  // claim row: the paper's statement
	order    []string
	op       string // order's comparison: "<" or ">"

	ens   string // the ensemble that measures the row
	from  string // the store column or derivation, as printed
	value func(*resultstore.Row) float64
	holds func(*resultstore.Row) bool
	// strict, when set, is the claim without its tolerance, counted
	// beside holds.
	strict func(*resultstore.Row) bool

	deviation string // why the ensemble misses the paper; "" when it must not
	unjudged  string // why no ensemble judges the row
}

// col reads a store column; a row without it reads NaN, which the
// report refuses.
func col(name string) func(*resultstore.Row) float64 {
	return func(r *resultstore.Row) float64 {
		if v, ok := resultstore.MetricValue(r, name); ok {
			return v
		}
		return math.NaN()
	}
}

// ms reads a latns column in milliseconds.
func ms(name string) func(*resultstore.Row) float64 {
	ns := col(name)
	return func(r *resultstore.Row) float64 { return ns(r) / 1e6 }
}

// cut is how much of column a's value column b saves, in percent of a.
func cut(a, b string) func(*resultstore.Row) float64 {
	ca, cb := col(a), col(b)
	return func(r *resultstore.Row) float64 { return 100 * (ca(r) - cb(r)) / ca(r) }
}

// tail sums a method's Table 6 path-hours from the >30 % row up: the
// high-loss tail TestRON2003Acceptance compares.
func tail(method string) func(*resultstore.Row) float64 {
	var cols []func(*resultstore.Row) float64
	for thr := 30; thr <= 90; thr += 10 {
		cols = append(cols, col(fmt.Sprintf("t6.%s.gt%d", method, thr)))
	}
	return func(r *resultstore.Row) float64 {
		sum := 0.0
		for _, c := range cols {
			sum += c(r)
		}
		return sum
	}
}

// latencyGap is method's mean latency minus the lowest other method's
// that measured one, in milliseconds: ≤ 0 when method is the best.
func latencyGap(method string) func(*resultstore.Row) float64 {
	own := "t5." + method + ".latns"
	return func(r *resultstore.Row) float64 {
		best := math.Inf(1)
		for i := range r.NumMetrics() {
			c, v := r.MetricAt(i)
			if c != own && v > 0 && strings.HasPrefix(c, "t5.") && strings.HasSuffix(c, ".latns") {
				best = min(best, v)
			}
		}
		return (col(own)(r) - best) / 1e6
	}
}

const (
	item16       = "ROADMAP item 16 fits the substrate to it"
	randFate     = "random intermediates share too little fate with the direct path; " + item16
	randCopy     = "the copy via a random intermediate is lost far less often than in the paper, which with its low CLP makes `direct rand` too good; " + item16
	detourProfit = "latency detours win too much over inflated direct routes (`netsim.drawInflation`); " + item16
)

// publishedTable returns the table. The §5.3 and §6 rows and the CLP
// of `direct rand` read costmodel.Defaults(), the one production home
// of the numbers the cost model takes from the paper. A row with an
// order becomes a claim about the value rows it names: their published
// values in that order, and their measured values in every seed.
func publishedTable() ([]published, error) {
	cm := costmodel.Defaults()
	const r03, wide = "ron2003", "ronwide"
	worst, gap := col("t6.worsthour"), latencyGap("direct lat")
	table := []published{
		{name: "loss of direct*", section: "Table 5", paper: 0.42, unit: "%", ens: r03, from: "t5.direct*.totlp", value: col("t5.direct*.totlp")},
		{name: "loss of lat*", section: "Table 5", paper: 0.43, unit: "%", ens: r03, from: "t5.lat*.totlp", value: col("t5.lat*.totlp")},
		{name: "loss of loss", section: "Table 5", paper: 0.33, unit: "%", ens: r03, from: "t5.loss.totlp", value: col("t5.loss.totlp")},
		{name: "loss of direct rand", section: "Table 5", paper: 0.26, unit: "%", ens: r03, from: "t5.direct rand.totlp", value: col("t5.direct rand.totlp")},
		{name: "loss of lat loss", section: "Table 5", paper: 0.23, unit: "%", ens: r03, from: "t5.lat loss.totlp", value: col("t5.lat loss.totlp")},
		{name: "mesh loss reduction", section: "Table 5", paper: 38, approx: true, unit: "%", ens: r03,
			from: "direct* → direct rand, % of direct*", value: cut("t5.direct*.totlp", "t5.direct rand.totlp"),
			deviation: randFate},
		{name: "rand-copy loss", section: "Table 5", paper: 2.66, unit: "%", ens: r03, from: "t5.direct rand.2lp", value: col("t5.direct rand.2lp"),
			deviation: randCopy},
		{name: "loss of direct (2002)", section: "Table 5", paper: 0.74, unit: "%", unjudged: "a RONnarrow number; no RONnarrow ensemble is committed"},
		{name: "rand-copy loss (2002)", section: "Table 5", paper: 1.85, unit: "%", unjudged: "a RONnarrow number; no RONnarrow ensemble is committed"},
		{name: "loss beats direct*", section: "Table 5", order: []string{"loss of loss", "loss of direct*"}, op: "<"},
		{name: "direct rand beats loss", section: "Table 5", order: []string{"loss of direct rand", "loss of loss"}, op: "<"},
		{name: "lat loss beats direct direct", section: "Table 5", claim: "reactive plus redundant routing loses less than redundancy alone", ens: r03,
			from:  "t5.lat loss.totlp < t5.direct direct.totlp",
			holds: func(r *resultstore.Row) bool { return col("t5.lat loss.totlp")(r) < col("t5.direct direct.totlp")(r) }},
		{name: "lat loss beats direct rand", section: "Table 5", order: []string{"loss of lat loss", "loss of direct rand"}, op: "<",
			deviation: "`direct rand` is too good, the same cause as its low CLP: " + randFate},

		{name: "CLP direct direct", section: "§4.4", paper: 72.15, unit: "%", ens: r03, from: "t5.direct direct.clp", value: col("t5.direct direct.clp"),
			deviation: "back-to-back copies share a burst more often than the paper saw; the EdgeShare probe left it unmoved. " + item16},
		{name: "CLP dd 10 ms", section: "§4.4", paper: 66.08, unit: "%", ens: r03, from: "t5.dd 10 ms.clp", value: col("t5.dd 10 ms.clp")},
		{name: "CLP dd 20 ms", section: "§4.4", paper: 65.28, unit: "%", ens: r03, from: "t5.dd 20 ms.clp", value: col("t5.dd 20 ms.clp")},
		{name: "CLP direct rand", section: "§4.4", paper: 100 * cm.CLP, unit: "%", ens: r03, from: "t5.direct rand.clp", value: col("t5.direct rand.clp"),
			deviation: randFate},
		{name: "CLP falls with spacing", section: "§4.4", order: []string{"CLP direct direct", "CLP dd 10 ms", "CLP dd 20 ms", "CLP direct rand"}, op: ">"},

		{name: "direct latency", section: "§4.5", paper: 54.13, unit: "ms", ens: r03, from: "t5.direct*.latns", value: ms("t5.direct*.latns")},
		{name: "lat* latency cut", section: "§4.5", paper: 11, approx: true, unit: "%", ens: r03,
			from: "direct* → lat* latns, % of direct*", value: cut("t5.direct*.latns", "t5.lat*.latns"),
			deviation: detourProfit},
		{name: "mesh latency cut", section: "§4.5", paper: 2, paperTop: 3, approx: true, unit: "ms", ens: r03,
			from:      "direct*.latns − direct rand.latns",
			value:     func(r *resultstore.Row) float64 { return ms("t5.direct*.latns")(r) - ms("t5.direct rand.latns")(r) },
			deviation: detourProfit},

		{name: "paths under 1 % loss", section: "Figure 2", claim: "80 % of paths have under 1 % loss",
			unjudged: "a per-path CDF, not a store column; `TestRON2003Acceptance` checks it on one seed"},
		{name: "loss-free 20-minute windows", section: "Figure 3", claim: "\"Over 95% of the samples had a 0% loss rate\" over 20-minute windows", ens: r03,
			from:  "win20.direct rand.p95 = 0",
			holds: func(r *resultstore.Row) bool { return col("win20.direct rand.p95")(r) == 0 }},
		{name: "per-path back-to-back CLP", section: "Figure 4", claim: "\"half of the hosts had a 100% conditional loss probability\" for back-to-back copies",
			unjudged: "a per-path CDF, not a store column; `TestRON2003Acceptance` checks it on one seed"},
		{name: ">90 % path-hours", section: "Table 6", claim: "path-hours above 90 % loss: lat loss 16, direct direct 31", ens: r03,
			from: "t6.worsthour > 90 (range: t6.worsthour)", value: worst, unit: "%",
			holds:     func(r *resultstore.Row) bool { return worst(r) > 90 },
			deviation: "no path-hour of any seed loses more than 90 %, so the row is empty for every method; `high-loss tail` states the ordering it carries"},
		{name: "high-loss tail", section: "Table 6", claim: "reactive routing trims the high-loss tail of redundancy (the >90 row)", ens: r03,
			from:  "lat loss ≤ direct direct, path-hours summed over gt30…gt90",
			holds: func(r *resultstore.Row) bool { return tail("lat loss")(r) <= tail("direct direct")(r) }},

		{name: "rand-copy loss (RONwide)", section: "Table 7", paper: 1.12, unit: "%", ens: wide, from: "t5.direct rand.2lp", value: col("t5.direct rand.2lp"),
			deviation: randCopy},
		{name: "rand lossier than direct", section: "Table 7", claim: "rand alone is much lossier than direct", ens: wide,
			from:  "t5.rand.totlp ≥ 1.5 × t5.direct.totlp",
			holds: func(r *resultstore.Row) bool { return col("t5.rand.totlp")(r) >= 1.5*col("t5.direct.totlp")(r) }},
		{name: "rand rand near direct rand", section: "Table 7", claim: "rand rand reaches mesh-grade total loss", ens: wide,
			from: "t5.rand rand.totlp ≤ 1.5 × t5.direct rand.totlp",
			holds: func(r *resultstore.Row) bool {
				return col("t5.rand rand.totlp")(r) <= 1.5*col("t5.direct rand.totlp")(r)
			}},
		{name: "rand RTT above direct", section: "Table 7", claim: "rand has poor latency", ens: wide,
			from:  "t5.rand.latns > t5.direct.latns",
			holds: func(r *resultstore.Row) bool { return col("t5.rand.latns")(r) > col("t5.direct.latns")(r) }},
		{name: "direct lat has the best latency", section: "Table 7", claim: "\"The latency of direct lat was better than any other method\"", ens: wide,
			from: "t5.direct lat.latns − the lowest other method's, in ms; ≤ 2 (strictly: < 0)", value: gap, unit: "ms",
			holds:  func(r *resultstore.Row) bool { return gap(r) <= 2 },
			strict: func(r *resultstore.Row) bool { return gap(r) < 0 }},

		{name: "FEC code", section: "§5.2", claim: "a code correcting 20 % loss adds one parity packet per five data packets",
			unjudged: "an input: `examples/fecpipe` runs `fec.NewCode(5, 1)`"},
		{name: "FEC spread", section: "§5.2", claim: "\"the FEC information must be spread out by nearly half a second\"",
			unjudged:  "measured by `examples/fecpipe`, whose `TestOutput` pins its output",
			deviation: "half a second of spread recovers about a third of the losses on the simulated channel, not most of them; `examples/fecpipe`'s doc comment gives the measured recovery and the reason"},
		{name: "RON size and probing", section: "§5.3", claim: fmt.Sprintf("a %d-node RON probing every %v", cm.N, cm.ProbeInterval),
			unjudged: "an input: `costmodel.Defaults()` N and ProbeInterval"},
		{name: "CLP between copies", section: "§5.3", paper: cm.CLP, approx: true,
			unjudged: "an input: `costmodel.Defaults().CLP`; its measured counterpart is `CLP direct rand`"},
		{name: "independence limit", section: "§5.3", paper: 100 * cm.SharedFraction, unit: "%",
			unjudged: "an input: `costmodel.Defaults().SharedFraction` (\"a reasonable upper limit\")"},
		{name: "avoidable loss", section: "§6", paper: 100 * cm.BestPathImprovement, approx: true, unit: "%",
			unjudged: "an input: `costmodel.Defaults().BestPathImprovement`; ROADMAP item 9 measures it"},
	}
	byName := map[string]published{}
	for _, p := range table {
		if _, dup := byName[p.name]; dup {
			return nil, fmt.Errorf("two rows are named %q", p.name)
		}
		byName[p.name] = p
	}
	for i := range table {
		if table[i].order != nil {
			if err := resolveOrder(&table[i], byName); err != nil {
				return nil, err
			}
		}
	}
	return table, nil
}

// resolveOrder makes an order row a claim about the value rows it
// names, all of one ensemble.
func resolveOrder(p *published, byName map[string]published) error {
	var claims, froms []string
	var values []func(*resultstore.Row) float64
	for _, name := range p.order {
		q, ok := byName[name]
		if !ok || q.value == nil || q.ens != byName[p.order[0]].ens {
			return fmt.Errorf("row %q orders %q, which is no value row of the first one's ensemble", p.name, name)
		}
		short := strings.TrimPrefix(strings.TrimPrefix(name, "loss of "), "CLP ")
		claims, froms, values = append(claims, short+" "+paperText(q)), append(froms, q.from), append(values, q.value)
		p.ens = q.ens
	}
	op := p.op
	p.claim, p.from = strings.Join(claims, " "+op+" "), strings.Join(froms, " "+op+" ")
	p.holds = func(r *resultstore.Row) bool {
		for k := 1; k < len(values); k++ {
			a, b := values[k-1](r), values[k](r)
			if !(op == "<" && a < b || op == ">" && a > b) {
				return false
			}
		}
		return true
	}
	return nil
}

// reading is what one ensemble says about one row.
type reading struct {
	n                     int
	min, lo, med, hi, max float64 // value rows (and claims with a value)
	held, strict          int     // claim rows
}

// Verdicts.
const (
	vCentral   = "central"
	vRange     = "range"
	vDeviation = "known deviation"
	vHeld      = "held"
	vUnjudged  = "not judged"
)

// judge reads row p off an ensemble's cells. The central band is the
// nearest-rank 10th to 90th percentile: at 16 seeds the 2nd to the 15th,
// because the nearest-rank 5th and 95th percentiles of 16 values are
// their extremes.
func judge(p published, cells []*resultstore.Row) reading {
	rd := reading{n: len(cells)}
	if p.value != nil {
		vals := make([]float64, len(cells))
		for i, r := range cells {
			vals[i] = p.value(r)
		}
		rd.min, rd.lo, rd.med = resultstore.Quantile(vals, 0), resultstore.Quantile(vals, 0.1), resultstore.Quantile(vals, 0.5)
		rd.hi, rd.max = resultstore.Quantile(vals, 0.9), resultstore.Quantile(vals, 1)
	}
	for _, r := range cells {
		if p.holds != nil && p.holds(r) {
			rd.held++
		}
		if p.strict != nil && p.strict(r) {
			rd.strict++
		}
	}
	return rd
}

// verdict classifies a judged row, and names what is wrong when the
// row is an unexplained deviation, or declares one the ensemble no
// longer shows.
func verdict(p published, rd reading) (string, error) {
	if p.unjudged != "" {
		if p.deviation != "" {
			return vDeviation, nil
		}
		return vUnjudged, nil
	}
	if p.holds == nil && (math.IsNaN(rd.min) || math.IsNaN(rd.max)) {
		return "", fmt.Errorf("row %q: ensemble %s lacks a column of %s", p.name, p.ens, p.from)
	}
	lo, hi := p.paper, max(p.paper, p.paperTop)
	v := vDeviation
	switch {
	case p.holds != nil:
		if rd.held == rd.n {
			v = vHeld
		}
	case lo <= rd.hi && hi >= rd.lo:
		v = vCentral
	case lo <= rd.max && hi >= rd.min:
		v = vRange
	}
	switch {
	case v == vDeviation && p.deviation == "":
		return "", fmt.Errorf("row %q: unexplained deviation: %s", p.name, describe(p, rd, v))
	case v != vDeviation && p.deviation != "":
		return "", fmt.Errorf("row %q declares a deviation the ensemble does not show (%s): delete it", p.name, describe(p, rd, v))
	}
	return v, nil
}

// num prints a measured value; paperNum a published one.
func num(v float64) string      { return strconv.FormatFloat(v, 'g', 3, 64) }
func paperNum(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

func withUnit(s, unit string) string {
	if unit == "" {
		return s
	}
	return s + " " + unit
}

// paperText is the row's published value or claim, as the report prints it.
func paperText(p published) string {
	if p.claim != "" {
		return p.claim
	}
	s := paperNum(p.paper)
	if p.paperTop != 0 {
		s += "–" + paperNum(p.paperTop)
	}
	if p.approx {
		s = "~" + s
	}
	return withUnit(s, p.unit)
}

// describe is the ensemble's reading of a row in words.
func describe(p published, rd reading, v string) string {
	var parts []string
	if p.value != nil {
		parts = append(parts, fmt.Sprintf("seeds %s", withUnit(num(rd.min)+"–"+num(rd.max), p.unit)))
	}
	if p.holds != nil {
		parts = append(parts, fmt.Sprintf("held in %d/%d seeds", rd.held, rd.n))
	}
	if p.strict != nil {
		parts = append(parts, fmt.Sprintf("strictly in %d/%d", rd.strict, rd.n))
	}
	if v == vDeviation && p.holds == nil {
		parts = append(parts, side(p, rd))
	}
	return strings.Join(parts, "; ")
}

// side says where a deviating value row's paper value lies.
func side(p published, rd reading) string {
	if p.paper > rd.max {
		return "paper above every seed"
	}
	return "paper below every seed"
}

// fidelityEnsemble reads an ensemble's cell rows, in name order.
func fidelityEnsemble(t *testing.T, name string) []*resultstore.Row {
	t.Helper()
	path := filepath.Join(fidelityDir, name+".seg")
	seg, err := resultstore.ReadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if seg.TruncatedBytes != 0 {
		t.Fatalf("%s: %d bytes of torn tail", path, seg.TruncatedBytes)
	}
	preds, err := resultstore.ParsePredicates("kind=" + resultstore.KindCell)
	if err != nil {
		t.Fatal(err)
	}
	cells := resultstore.Select(seg.Unique(), preds)
	sort.Slice(cells, func(i, j int) bool { return cells[i].Name < cells[j].Name })
	if len(cells) == 0 {
		t.Fatalf("%s: no cell rows", path)
	}
	return cells
}

// TestFidelityReport judges every published value against the
// committed ensembles and checks the rendered report. A row the
// ensemble misses — a value outside every seed, or a claim that fails
// in some seed — must carry a deviation saying why, and a declared
// deviation the ensemble does not show fails too. So every claim
// without a deviation, the Table 5/7 orderings among them, holds in
// every committed seed.
func TestFidelityReport(t *testing.T) {
	table, err := publishedTable()
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string][]*resultstore.Row{}
	for _, e := range fidelityEnsembles {
		cells[e.name] = fidelityEnsemble(t, e.name)
	}
	readings := make([]reading, len(table))
	verdicts := make([]string, len(table))
	for i, p := range table {
		if p.unjudged == "" {
			readings[i] = judge(p, cells[p.ens])
		}
		v, err := verdict(p, readings[i])
		if err != nil {
			t.Error(err)
		}
		verdicts[i] = v
	}
	checkRendered(t, fidelityDoc, renderFidelity(table, readings, verdicts, cells))
	paper, err := os.ReadFile(paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	before, rest, ok1 := strings.Cut(string(paper), paperBlockBegin+"\n")
	_, after, ok2 := strings.Cut(rest, paperBlockEnd+"\n")
	if !ok1 || !ok2 {
		t.Fatalf("%s: no %q … %q block", paperDoc, paperBlockBegin, paperBlockEnd)
	}
	block := paperBlockBegin + "\n" + renderPaperBlock(table, verdicts) + paperBlockEnd + "\n"
	checkRendered(t, paperDoc, before+block+after)
}

// checkRendered compares a rendered document with the committed file
// byte for byte; GOLDEN_UPDATE=1 rewrites the file instead, under
// checkGolden's rule.
func checkRendered(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Error(lineDiff(path, got, string(want)))
	}
}

const fidelityIntro = `# Fidelity: the published numbers against seed ensembles

<!-- Rendered by TestFidelityReport (fidelity_test.go) from testdata/fidelity/; do not edit by hand. -->

Every number of the paper that the code depends on is one row of the
table in ` + "`fidelity_test.go`" + ` (` + "`publishedTable`" + `), and nowhere else:
tests that check a published number name its row, and PAPER.md's list
of published numbers is rendered from the same table. The cost model's
three published parameters keep their one production home,
` + "`costmodel.Defaults()`" + `, which the table reads.

Each row is judged against a committed seed ensemble, one result-store
segment per dataset under ` + "`testdata/fidelity/`" + `. Tier-1
(` + "`go test .`" + `) judges every row, renders this file and PAPER.md's
block, and compares both byte for byte; after an intentional change,
` + "`GOLDEN_UPDATE=1 go test -run TestFidelityReport .`" + ` rewrites them.

A value row is classified by where the paper's value (or range) falls
among the ensemble's seeds:

- **central**: inside the central band, the nearest-rank 10th to 90th
  percentile of the seeds (the 2nd to the 15th of 16; the nearest-rank
  5th and 95th percentiles of 16 values are their extremes);
- **range**: outside that band but inside the seeds' range;
- **known deviation**: outside every seed, with the reason stated below.

A claim row (an ordering or a qualitative statement) is **held** when it
holds in every seed, and is otherwise a known deviation with its reason.
A row with no reason that misses, or a stated reason the ensemble no
longer needs, fails the test. Rows **not judged** are inputs the code
takes from the paper, or numbers no committed ensemble measures; each
says where it lives.
`

func renderFidelity(table []published, readings []reading, verdicts []string, cells map[string][]*resultstore.Row) string {
	var b strings.Builder
	b.WriteString(fidelityIntro)
	b.WriteString("\n## Ensembles\n\n")
	b.WriteString("Each segment is made, and CI's `test-full` job remakes and `cmp`s it, with\n\n")
	b.WriteString("```sh\n")
	for _, e := range fidelityEnsembles {
		fmt.Fprintf(&b, "ronsim -sweep %s -out d && rm d/results.seg && ronreport -store d -reindex && cp d/results.seg %s/%s.seg && rm -r d\n",
			e.args, fidelityDir, e.name)
	}
	b.WriteString("```\n\n")
	b.WriteString("`-reindex` writes the rows in grid order, where a live sweep appends them\nin completion order.\n\n")
	b.WriteString("| Ensemble | Cells | Seeds |\n|---|---|---|\n")
	for _, e := range fidelityEnsembles {
		cs := cells[e.name]
		fmt.Fprintf(&b, "| `%s` | %d | %s … %s |\n", e.name, len(cs), cs[0].Name, cs[len(cs)-1].Name)
	}

	count := map[string]int{}
	for _, v := range verdicts {
		count[v]++
	}
	b.WriteString("\n## Verdicts\n\n| Verdict | Rows |\n|---|---|\n")
	for _, v := range []string{vCentral, vRange, vHeld, vDeviation, vUnjudged} {
		fmt.Fprintf(&b, "| %s | %d |\n", v, count[v])
	}

	for _, e := range fidelityEnsembles {
		fmt.Fprintf(&b, "\n## `%s`\n\n", e.name)
		b.WriteString("| Row | Section | Paper | Measured as | Median | Central | Seeds | Verdict |\n|---|---|---|---|---|---|---|---|\n")
		for i, p := range table {
			if p.ens != e.name || p.unjudged != "" {
				continue
			}
			med, band, seeds := "", "", ""
			if p.value != nil {
				rd := readings[i]
				med = withUnit(num(rd.med), p.unit)
				band = withUnit(num(rd.lo)+"–"+num(rd.hi), p.unit)
				seeds = withUnit(num(rd.min)+"–"+num(rd.max), p.unit)
			}
			if p.holds != nil {
				seeds = strings.TrimPrefix(seeds+"; ", "; ") + fmt.Sprintf("held %d/%d", readings[i].held, readings[i].n)
			}
			if p.strict != nil {
				seeds += fmt.Sprintf(" (strictly %d/%d)", readings[i].strict, readings[i].n)
			}
			v := verdicts[i]
			if v == vDeviation {
				v = "**" + v + "**"
				if p.holds == nil {
					v += ": " + side(p, readings[i])
				}
			}
			fmt.Fprintf(&b, "| %s | %s | %s | `%s` | %s | %s | %s | %s |\n",
				p.name, p.section, paperText(p), p.from, med, band, seeds, v)
		}
	}

	b.WriteString("\n## Known deviations\n\n")
	for i, p := range table {
		switch {
		case verdicts[i] == vDeviation && p.unjudged != "":
			fmt.Fprintf(&b, "- **%s** (%s; %s): %s.\n", p.name, p.section, p.unjudged, p.deviation)
		case verdicts[i] == vDeviation:
			fmt.Fprintf(&b, "- **%s** (`%s`): %s; %s.\n", p.name, p.ens, describe(p, readings[i], verdicts[i]), p.deviation)
		}
	}
	b.WriteString("\n## Not judged\n\n| Row | Section | Paper | Why |\n|---|---|---|---|\n")
	for i, p := range table {
		if verdicts[i] == vUnjudged {
			fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", p.name, p.section, paperText(p), p.unjudged)
		}
	}
	return b.String()
}

// renderPaperBlock is PAPER.md's list of published numbers: every row
// of the table in order, with its verdict.
func renderPaperBlock(table []published, verdicts []string) string {
	var b strings.Builder
	b.WriteString("Rendered from the one table of published values, `publishedTable` in\n")
	b.WriteString("`fidelity_test.go`; [docs/FIDELITY.md](docs/FIDELITY.md) gives each row's\n")
	b.WriteString("ensemble reading and the reason for every known deviation.\n\n")
	b.WriteString("| Section | Quantity | Paper | Judged against | Verdict |\n|---|---|---|---|---|\n")
	for i, p := range table {
		against := "—"
		if p.unjudged == "" {
			against = "`" + p.ens + "`"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n", p.section, p.name, paperText(p), against, verdicts[i])
	}
	return b.String()
}
