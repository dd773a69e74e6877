package resultstore

import (
	"fmt"
	"math"
	"math/rand"
	"path"
	"sort"
	"testing"

	"repro/internal/analysis"
)

// match reports whether the row satisfies every predicate. It is the
// per-row definition of a query that Select's compiled matchers must
// agree with.
func match(r *Row, preds []Predicate) bool {
	for _, p := range preds {
		ok, err := path.Match(p.Pattern, resolveField(p.Field).value(r))
		if err != nil || !ok {
			return false
		}
	}
	return true
}

func queryRows() []*Row {
	return []*Row{
		{Kind: KindCell, Name: "a-r00", Group: "a", Dataset: "ronnarrow", Replica: 0, Seed: 10,
			Axes:    []AxisKV{{"scenario", "0"}, {"streams", "2"}},
			Metrics: []Metric{{"t6.worsthour", 0.4}}},
		{Kind: KindCell, Name: "a-r01", Group: "a", Dataset: "ronnarrow", Replica: 1, Seed: 11,
			Axes:    []AxisKV{{"scenario", "0"}, {"streams", "2"}},
			Metrics: []Metric{{"t6.worsthour", 0.2}}},
		{Kind: KindCell, Name: "b-r00", Group: "b", Dataset: "ronnarrow", Replica: 0, Seed: 12,
			Axes:    []AxisKV{{"scenario", "outage"}, {"streams", "2"}},
			Metrics: []Metric{{"t6.worsthour", 0.9}, {"rs.outages", 3}}},
		{Kind: KindGroup, Name: "a", Group: "a", Dataset: "ronnarrow", Replica: -1,
			Axes:    []AxisKV{{"scenario", "0"}, {"streams", "2"}},
			Metrics: []Metric{{"t6.worsthour", 0.3}}},
	}
}

func TestParsePredicates(t *testing.T) {
	preds, err := ParsePredicates(" kind=cell , scenario=outage,name=*-r0[01]")
	if err != nil {
		t.Fatal(err)
	}
	want := []Predicate{{"kind", "cell"}, {"scenario", "outage"}, {"name", "*-r0[01]"}}
	if len(preds) != len(want) {
		t.Fatalf("parsed %d predicates, want %d", len(preds), len(want))
	}
	for i := range want {
		if preds[i] != want[i] {
			t.Errorf("predicate %d = %+v, want %+v", i, preds[i], want[i])
		}
	}
	if p, err := ParsePredicates(""); err != nil || p != nil {
		t.Errorf("empty query parsed to (%v, %v), want (nil, nil)", p, err)
	}
	if _, err := ParsePredicates("noequals"); err == nil {
		t.Error("predicate without '=' accepted")
	}
	if _, err := ParsePredicates("name=[bad"); err == nil {
		t.Error("malformed glob accepted")
	}
}

// FuzzParsePredicates: the -query parser never panics, and Select, the
// compiled form, keeps exactly the rows match accepts over a six-row
// fixture that includes slashes and empty fields.
func FuzzParsePredicates(f *testing.F) {
	for _, seed := range []string{" kind=cell , scenario=outage,name=*-r0[01]", "", "noequals", "name=[bad",
		"kind=group", "kind=cell,scenario=0", "name=a-r*", "replica=1", "seed=12", "nosuchaxis=*",
		"nosuchaxis=x", "=x", `name=\\`, "scenario=a/*", "name=*"} {
		f.Add(seed)
	}
	rows := append(queryRows(),
		&Row{Kind: KindCell, Name: "c/r00", Group: "c", Dataset: "ron2003", Seed: 13,
			Axes: []AxisKV{{"scenario", "a/b"}}},
		&Row{Kind: KindGroup, Replica: -1})
	f.Fuzz(func(t *testing.T, query string) {
		preds, err := ParsePredicates(query)
		if err != nil {
			return
		}
		got := Select(rows, preds)
		var want []*Row
		for _, r := range rows {
			if match(r, preds) {
				want = append(want, r)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%q: Select kept %d rows, match accepts %d", query, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%q: Select row %d is %s, match's is %s", query, i, got[i].Name, want[i].Name)
			}
		}
	})
}

func TestSelect(t *testing.T) {
	rows := queryRows()
	cases := []struct {
		query string
		want  []string
	}{
		{"kind=cell", []string{"a-r00", "a-r01", "b-r00"}},
		{"kind=group", []string{"a"}},
		{"scenario=outage", []string{"b-r00"}},
		{"kind=cell,scenario=0", []string{"a-r00", "a-r01"}},
		{"name=a-r*", []string{"a-r00", "a-r01"}},
		{"replica=1", []string{"a-r01"}},
		{"seed=12", []string{"b-r00"}},
		{"nosuchaxis=*", []string{"a-r00", "a-r01", "b-r00", "a"}},
		{"nosuchaxis=x", nil},
	}
	for _, c := range cases {
		preds, err := ParsePredicates(c.query)
		if err != nil {
			t.Fatalf("%q: %v", c.query, err)
		}
		sel := Select(rows, preds)
		var got []string
		for _, r := range sel {
			got = append(got, r.Name)
		}
		if len(got) != len(c.want) {
			t.Errorf("%q selected %v, want %v", c.query, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%q selected %v, want %v", c.query, got, c.want)
				break
			}
		}
	}
}

func TestGroupBy(t *testing.T) {
	rows := queryRows()
	groups := GroupBy(rows, "scenario")
	if len(groups) != 2 {
		t.Fatalf("grouped into %d buckets, want 2", len(groups))
	}
	if groups[0].Key != "0" || len(groups[0].Rows) != 3 {
		t.Errorf("bucket 0 = %q with %d rows, want \"0\" with 3", groups[0].Key, len(groups[0].Rows))
	}
	if groups[1].Key != "outage" || len(groups[1].Rows) != 1 {
		t.Errorf("bucket 1 = %q with %d rows, want \"outage\" with 1", groups[1].Key, len(groups[1].Rows))
	}
	all := GroupBy(rows, "")
	if len(all) != 1 || all[0].Key != "" || len(all[0].Rows) != len(rows) {
		t.Errorf("empty field grouped into %d buckets, want a single catch-all", len(all))
	}
}

func TestMetricValues(t *testing.T) {
	rows := queryRows()
	vals := MetricValues(rows, "rs.outages")
	if len(vals) != 1 || vals[0] != 3 {
		t.Errorf("rs.outages across rows = %v, want [3]", vals)
	}
	if vals := MetricValues(rows, "t6.worsthour"); len(vals) != 4 {
		t.Errorf("t6.worsthour present on %d rows, want 4", len(vals))
	}
}

// TestQuantileMatchesCDF is the satellite property test: for random
// sample sets and probes, resultstore.Quantile must agree exactly with
// analysis.CDF.Quantile — the canned queries' aggregate numbers carry
// the same nearest-rank semantics as the figure pipeline.
func TestQuantileMatchesCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	probes := []float64{-0.5, 0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1, 1.5}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		vals := make([]float64, n)
		var cdf analysis.CDF
		for i := range vals {
			// A mix of repeated small rationals (like win20 loss rates)
			// and continuous draws.
			if rng.Intn(2) == 0 {
				vals[i] = float64(rng.Intn(5)) / 4
			} else {
				vals[i] = rng.NormFloat64()
			}
			cdf.Add(vals[i])
		}
		qs := append(probes, rng.Float64(), rng.Float64())
		for _, q := range qs {
			got := Quantile(vals, q)
			want := cdf.Quantile(q)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("trial %d: Quantile(%d vals, q=%v) = %v, CDF says %v",
					trial, n, q, got, want)
			}
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile of no values should be 0, matching CDF")
	}
	// The input must come back unmodified (Quantile sorts a copy).
	in := []float64{3, 1, 2}
	Quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Quantile reordered its input: %v", in)
	}
}

// TestSelectMatchesMatch holds the compiled Select to the per-row match
// definition over generated predicates — literals, "*", "?", classes,
// backslash escapes, on identity fields, replica/seed, present and
// absent axes — and rows whose values include the characters a glob
// treats specially.
func TestSelectMatchesMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := []string{"", "0", "0.25", "a", "b", "c", "ab", "a*", "a?c", "abc", "a/b", "[a-c]", `a\b`, "outage", "storm"}
	pick := func(list []string) string { return list[rng.Intn(len(list))] }
	var rows []*Row
	for i := 0; i < 300; i++ {
		r := &Row{Kind: pick([]string{KindCell, KindGroup}), Name: pick(values), Group: pick(values),
			Dataset: pick(values), Replica: int32(rng.Intn(4)) - 1, Seed: uint64(rng.Intn(12))}
		for _, key := range []string{"batch", "hysteresis", "scenario", "scenario"} { // a key may repeat
			if rng.Intn(3) > 0 {
				r.Axes = append(r.Axes, AxisKV{key, pick(values)})
			}
		}
		rows = append(rows, r)
	}
	fields := []string{"kind", "name", "group", "dataset", "replica", "seed", "batch", "hysteresis", "scenario", "nosuchaxis"}
	patterns := append([]string{"*", "?", "??", "a*", "*b", "[a-c]", "[a-c]*", "[^a]", `a\*`, `a\?c`, `\[a-c]`,
		"a[", "cell", "group", "-1", "1", "1?", "*/*", "a/b"}, values...)
	selected := 0
	for trial := 0; trial < 2000; trial++ {
		preds := make([]Predicate, 1+rng.Intn(3))
		for i := range preds {
			preds[i] = Predicate{pick(fields), pick(patterns)}
		}
		got := Select(rows, preds)
		var want []*Row
		for _, r := range rows {
			if match(r, preds) {
				want = append(want, r)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%v: Select kept %d rows, match keeps %d", preds, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: Select row %d is %+v, match says %+v", preds, i, got[i], want[i])
			}
		}
		selected += len(got)
	}
	if selected == 0 {
		t.Fatal("no generated query selected any row; the comparison is vacuous")
	}
}

// checkMetricValues compares MetricValues with the loop it abbreviates.
func checkMetricValues(t *testing.T, rows []*Row, col string) {
	t.Helper()
	var want []float64
	for _, r := range rows {
		if v, ok := MetricValue(r, col); ok {
			want = append(want, v)
		}
	}
	got := MetricValues(rows, col)
	if len(got) != len(want) {
		t.Fatalf("MetricValues(%q) has %d values, a MetricValue loop %d", col, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MetricValues(%q)[%d] = %v, a MetricValue loop gives %v", col, i, got[i], want[i])
		}
	}
}

// TestMetricValuesMatchesLoop runs MetricValues' positional lookup over
// rows whose layouts keep moving under it: testRows (reordered, missing
// and fresh columns), then a generated mix of shuffled, truncated and
// empty vectors, so the remembered position is by turns right, wrong,
// out of range and pointing at another column.
func TestMetricValuesMatchesLoop(t *testing.T) {
	fixed := testRows()
	var rows []*Row
	for i := range fixed {
		rows = append(rows, &fixed[i])
	}
	cols := []string{"t5.rtt", "t5.direct.order", "t5.direct.totlp", "t6.worsthour", "wl.bp.losspct", "rs.outages"}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		r := &Row{Kind: KindCell, Name: fmt.Sprintf("gen-r%03d", i)}
		switch rng.Intn(4) {
		case 0: // the previous row's layout again
			if prev := rows[len(rows)-1]; len(prev.Metrics) > 0 {
				r.Metrics = append([]Metric(nil), prev.Metrics...)
				break
			}
			fallthrough
		default:
			for _, c := range rng.Perm(len(cols))[:rng.Intn(len(cols)+1)] {
				r.Metrics = append(r.Metrics, Metric{cols[c], 0})
			}
		}
		for k := range r.Metrics {
			r.Metrics[k].Val = rng.Float64()
		}
		rows = append(rows, r)
	}
	for _, col := range append(cols, "absent") {
		checkMetricValues(t, rows, col)
		checkMetricValues(t, rows[:1], col)
		checkMetricValues(t, nil, col)
	}
}

// TestQuantileSelectsLikeSort checks the selection behind Quantile
// against a full sort at every rank, on the inputs that break naive
// quickselects: sorted, reversed, organ-pipe, constant, few distinct
// values, and NaNs anywhere.
func TestQuantileSelectsLikeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := map[string]func(i, n int) float64{
		"random":    func(i, n int) float64 { return rng.NormFloat64() },
		"sorted":    func(i, n int) float64 { return float64(i) },
		"reversed":  func(i, n int) float64 { return float64(n - i) },
		"organpipe": func(i, n int) float64 { return float64(min(i, n-i)) },
		"constant":  func(i, n int) float64 { return 0.25 },
		"ties":      func(i, n int) float64 { return float64(rng.Intn(3)) },
		"nans": func(i, n int) float64 {
			if rng.Intn(4) == 0 {
				return math.NaN()
			}
			return float64(rng.Intn(20))
		},
		"allnan": func(i, n int) float64 { return math.NaN() },
	}
	same := func(a, b float64) bool { return a == b || a != a && b != b }
	for name, shape := range shapes {
		for _, n := range []int{1, 2, 11, 12, 13, 40, 257, 1000} {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = shape(i, n)
			}
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			for k := 0; k < n; k++ {
				if got := selectNth(append([]float64(nil), vals...), k); !same(got, sorted[k]) {
					t.Fatalf("%s n=%d: selectNth(%d) = %v, sorted[%d] = %v", name, n, k, got, k, sorted[k])
				}
			}
			for _, q := range []float64{-1, 0, 0.5, 0.95, 1, 2, math.NaN()} {
				k := 0
				if q >= 1 {
					k = n - 1
				} else if q > 0 {
					k = min(int(q*float64(n)), n-1)
				}
				if got := Quantile(vals, q); !same(got, sorted[k]) {
					t.Fatalf("%s n=%d: Quantile(%v) = %v, want sorted[%d] = %v", name, n, q, got, k, sorted[k])
				}
			}
		}
	}
}

// TestCompileChoosesCheapestTest pins the predicate-compilation rule.
func TestCompileChoosesCheapestTest(t *testing.T) {
	for pattern, want := range map[string]int{
		"*": opNoSlash, "": opEqual, "outage": opEqual, "0.25": opEqual, "a/b": opEqual, "a]": opEqual,
		"a*": opGlob, "**": opGlob, "?": opGlob, "[a-c]": opGlob, `a\*`: opGlob,
	} {
		if got := compile([]Predicate{{"scenario", pattern}})[0].op; got != want {
			t.Errorf("pattern %q compiled to op %d, want %d", pattern, got, want)
		}
	}
}
