package resultstore

import (
	"fmt"
	"math/bits"
	"path"
	"sort"
	"strconv"
	"strings"
)

// The query side: axis-predicate filters, group-by, and quantiles over
// stored rows — the primitives cmd/ronreport composes into a small
// query engine. Predicates are conjunctive `field=pattern` terms;
// patterns use path.Match globs, so `name=*-r0[01]` or
// `scenario=outage` both work. Fields resolve against the row's fixed
// identity first (kind, name, group, dataset, replica, seed) and fall
// back to its axis map, so any future axis is queryable with no code
// change; a row that lacks the axis resolves to "" and only matches an
// empty or `*` pattern.

// Predicate is one conjunctive query term.
type Predicate struct {
	Field   string
	Pattern string
}

// ParsePredicates parses a comma-separated predicate list
// ("scenario=outage,redundancy=0.5,kind=group"). An empty string means
// no constraints.
func ParsePredicates(s string) ([]Predicate, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var preds []Predicate
	for _, term := range strings.Split(s, ",") {
		field, pat, ok := strings.Cut(term, "=")
		field = strings.TrimSpace(field)
		if !ok || field == "" {
			return nil, fmt.Errorf("resultstore: bad predicate %q (want field=pattern)", term)
		}
		pat = strings.TrimSpace(pat)
		if _, err := path.Match(pat, ""); err != nil {
			return nil, fmt.Errorf("resultstore: bad pattern %q: %w", pat, err)
		}
		preds = append(preds, Predicate{Field: field, Pattern: pat})
	}
	return preds, nil
}

// field is a query field resolved once: one of the row's fixed identity
// fields, or an axis key.
type field struct {
	id   int    // fieldKind..fieldSeed, or fieldAxis
	axis string // the name looked up in Row.Axes when id == fieldAxis
}

const (
	fieldAxis = iota // the zero value: any name that is not an identity field
	fieldKind
	fieldName
	fieldGroup
	fieldDataset
	fieldReplica
	fieldSeed
)

var identityFields = map[string]int{
	"kind": fieldKind, "name": fieldName, "group": fieldGroup,
	"dataset": fieldDataset, "replica": fieldReplica, "seed": fieldSeed,
}

// resolveField maps a name to its identity field, or (the map's zero
// value) to the axis of that name.
func resolveField(name string) field { return field{id: identityFields[name], axis: name} }

func (f field) value(r *Row) string {
	switch f.id {
	case fieldKind:
		return r.Kind
	case fieldName:
		return r.Name
	case fieldGroup:
		return r.Group
	case fieldDataset:
		return r.Dataset
	case fieldReplica:
		return strconv.FormatInt(int64(r.Replica), 10)
	case fieldSeed:
		return strconv.FormatUint(r.Seed, 10)
	}
	for i := range r.Axes {
		if r.Axes[i].Key == f.axis {
			return r.Axes[i].Value
		}
	}
	return ""
}

// matcher is one compiled predicate.
type matcher struct {
	field
	op      int
	pattern string
}

const (
	opEqual   = iota // no glob metacharacter: the pattern is the value
	opNoSlash        // "*": path.Match's star spans anything but '/'
	opGlob
)

// compile resolves each predicate's field and picks the cheapest test
// that agrees with path.Match on every value.
func compile(preds []Predicate) []matcher {
	ms := make([]matcher, len(preds))
	for i, p := range preds {
		ms[i] = matcher{field: resolveField(p.Field), op: opGlob, pattern: p.Pattern}
		switch {
		case p.Pattern == "*":
			ms[i].op = opNoSlash
		case !strings.ContainsAny(p.Pattern, `*?[\`):
			ms[i].op = opEqual
		}
	}
	return ms
}

func (m *matcher) match(r *Row) bool {
	v := m.value(r)
	switch m.op {
	case opEqual:
		return v == m.pattern
	case opNoSlash:
		return !strings.Contains(v, "/")
	}
	ok, err := path.Match(m.pattern, v)
	return ok && err == nil
}

// Select returns the rows satisfying every predicate, in input order.
func Select(rows []*Row, preds []Predicate) []*Row {
	ms := compile(preds)
	out := make([]*Row, 0, len(rows))
rows:
	for _, r := range rows {
		for i := range ms {
			if !ms[i].match(r) {
				continue rows
			}
		}
		out = append(out, r)
	}
	return out
}

// Group is one group-by bucket.
type Group struct {
	Key  string
	Rows []*Row
}

// GroupBy buckets rows by a field's value, buckets sorted by key,
// rows kept in input order. An empty field yields one "" bucket with
// every row.
func GroupBy(rows []*Row, field string) []Group {
	if field == "" {
		return []Group{{Rows: rows}}
	}
	byKey := map[string][]*Row{}
	var keys []string
	f := resolveField(field)
	for _, r := range rows {
		k := f.value(r)
		if _, seen := byKey[k]; !seen {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], r)
	}
	sort.Strings(keys)
	out := make([]Group, 0, len(keys))
	for _, k := range keys {
		out = append(out, Group{Key: k, Rows: byKey[k]})
	}
	return out
}

// MetricValue looks up one metric column on a row.
func MetricValue(r *Row, col string) (float64, bool) {
	for i := range r.NumMetrics() {
		if c, v := r.MetricAt(i); c == col {
			return v, true
		}
	}
	return 0, false
}

// MetricValues collects a column across rows, skipping rows that lack
// it. A sweep's rows list their columns in one order, so the position
// the column had on the previous row is tried before the row is
// scanned. That equals a MetricValue loop on every row whose columns
// are distinct — every row ReadSegment returns.
func MetricValues(rows []*Row, col string) []float64 {
	out := make([]float64, 0, len(rows))
	at := 0
	for _, r := range rows {
		n := r.NumMetrics()
		if at < n {
			if c, v := r.MetricAt(at); c == col {
				out = append(out, v)
				continue
			}
		}
		for i := range n {
			if c, v := r.MetricAt(i); c == col {
				at = i
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// Quantile returns the q-quantile of vals under the same nearest-rank
// convention as analysis.CDF.Quantile: the smallest value with
// cumulative count strictly above ⌊q·n⌋, clamped to the extremes. vals
// need not be sorted; the input slice is not modified.
func Quantile(vals []float64, q float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	idx := 0
	if q >= 1 {
		idx = n - 1
	} else if q > 0 {
		idx = min(int(q*float64(n)), n-1)
	}
	return selectNth(append([]float64(nil), vals...), idx)
}

// selectNth returns the value sort.Float64s would leave at v[k] — NaNs
// first, then ascending — after partitioning only the side of each
// pivot that holds k. v is reordered.
func selectNth(v []float64, k int) float64 {
	nans := 0
	for i, x := range v {
		if x != x {
			v[i], v[nans] = v[nans], x
			nans++
		}
	}
	if k < nans {
		return v[k]
	}
	lo, hi := nans, len(v)-1
	// Median-of-three pivots make quadratic inputs rare, not impossible;
	// a range still wide when the budget runs out is sorted instead.
	for budget := 2 * bits.Len(uint(len(v))); hi-lo >= 12 && budget > 0; budget-- {
		mid := lo + (hi-lo)/2
		if v[mid] < v[lo] {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if v[hi] < v[lo] {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if v[hi] < v[mid] {
			v[hi], v[mid] = v[mid], v[hi]
		}
		pivot := v[mid]
		i, j := lo, hi
		for i <= j {
			for v[i] < pivot {
				i++
			}
			for pivot < v[j] {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		// v[lo..j] <= pivot <= v[i..hi]; anything between equals pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return pivot
		}
	}
	sort.Float64s(v[lo : hi+1])
	return v[k]
}
