package analysis

import "sort"

// CDF is an empirical cumulative distribution built from samples.
//
// Storage is sorted run-length: distinct values with multiplicities,
// plus a cumulative-count index rebuilt lazily on query. Month-long
// win20 pools are dominated by repeated values (most 20-minute windows
// on most paths have a loss rate of exactly 0, or one of a handful of
// small rationals), so memory is O(distinct values) instead of
// O(samples) while every query — quantiles, fractions, max, mean —
// returns exactly what the equivalent sorted multiset would: Add order
// never changes a result.
//
// Appends are cheap: a sample matching an existing run is a binary
// search and a counter bump; new values stage in a small pending buffer
// that is sorted and merged into the runs when it fills or a query
// needs it.
type CDF struct {
	vals     []float64 // distinct sample values, ascending
	counts   []int64   // counts[i] = multiplicity of vals[i]
	cum      []int64   // cum[i] = total samples ≤ vals[i]; see cumStale
	cumStale bool      // cum must be rebuilt before use (buffer is kept)
	total    int64

	// pending stages values not yet present in vals so runs are not
	// re-sorted per novel sample. Invariant: every queryable state is
	// reachable only through compact().
	pending []float64

	// scratchVals/scratchCounts are the spare run buffers compact and
	// Merge build into before swapping them with vals/counts, so
	// steady-state compaction (a reused aggregator re-observing the
	// same value population) allocates nothing.
	scratchVals   []float64
	scratchCounts []int64
}

// Reset empties the CDF, retaining all storage, so a reused aggregator's
// window pools start exactly like freshly constructed ones without
// re-paying their allocation.
func (c *CDF) Reset() {
	c.vals = c.vals[:0]
	c.counts = c.counts[:0]
	c.cum = c.cum[:0]
	c.pending = c.pending[:0]
	c.cumStale = false
	c.total = 0
}

// pendingLimit bounds the staging buffer; compaction is O((runs +
// pending) + pending log pending).
const pendingLimit = 256

// Add appends one sample.
func (c *CDF) Add(v float64) {
	c.total++
	c.cumStale = true
	// Fast path: the value already has a run.
	if i := c.find(v); i >= 0 {
		c.counts[i]++
		return
	}
	if c.pending == nil {
		// The staging buffer always fills to pendingLimit before it is
		// drained; allocate it full-size once instead of growing.
		c.pending = make([]float64, 0, pendingLimit)
	}
	c.pending = append(c.pending, v)
	if len(c.pending) >= pendingLimit {
		c.compact()
	}
}

// AddWeighted appends one value count times (count <= 0 is a no-op).
func (c *CDF) AddWeighted(v float64, count int64) {
	if count <= 0 {
		return
	}
	c.total += count
	c.cumStale = true
	if i := c.find(v); i >= 0 {
		c.counts[i] += count
		return
	}
	c.compact()
	// After compaction the value may have gained a run via pending.
	if i := c.find(v); i >= 0 {
		c.counts[i] += count
		return
	}
	i := sort.SearchFloat64s(c.vals, v)
	c.vals = append(c.vals, 0)
	c.counts = append(c.counts, 0)
	copy(c.vals[i+1:], c.vals[i:])
	copy(c.counts[i+1:], c.counts[i:])
	c.vals[i] = v
	c.counts[i] = count
}

// Merge folds all of other's samples into c without expanding them: a
// linear two-pointer merge of the sorted run lists, O(distinct(c) +
// distinct(other)) regardless of how many samples the runs stand for.
func (c *CDF) Merge(other *CDF) {
	c.compact()
	other.compact()
	if len(other.vals) == 0 {
		return
	}
	merged, mcounts := c.scratchFor(len(c.vals) + len(other.vals))
	i, j := 0, 0
	for i < len(c.vals) || j < len(other.vals) {
		switch {
		case j >= len(other.vals) || (i < len(c.vals) && c.vals[i] < other.vals[j]):
			merged = append(merged, c.vals[i])
			mcounts = append(mcounts, c.counts[i])
			i++
		case i >= len(c.vals) || other.vals[j] < c.vals[i]:
			merged = append(merged, other.vals[j])
			mcounts = append(mcounts, other.counts[j])
			j++
		default: // equal values: counts add
			merged = append(merged, c.vals[i])
			mcounts = append(mcounts, c.counts[i]+other.counts[j])
			i++
			j++
		}
	}
	c.swapInRuns(merged, mcounts)
	c.total += other.total
	c.cumStale = true
}

// find returns the run index holding v, or -1.
func (c *CDF) find(v float64) int {
	i := sort.SearchFloat64s(c.vals, v)
	if i < len(c.vals) && c.vals[i] == v {
		return i
	}
	return -1
}

// swapInRuns installs freshly built run buffers (grown from the scratch
// pair) as the live runs, retiring the old live buffers to scratch for
// the next rebuild.
func (c *CDF) swapInRuns(vals []float64, counts []int64) {
	c.scratchVals, c.vals = c.vals, vals
	c.scratchCounts, c.counts = c.counts, counts
}

// scratchFor returns the scratch run buffers ready to receive need
// entries, growing them with headroom in one allocation when short so a
// rebuild never pays per-append growth.
func (c *CDF) scratchFor(need int) ([]float64, []int64) {
	if cap(c.scratchVals) < need {
		n := need + need/2
		c.scratchVals = make([]float64, 0, n)
		c.scratchCounts = make([]int64, 0, n)
	}
	return c.scratchVals[:0], c.scratchCounts[:0]
}

// compact merges the pending staging buffer into the sorted runs,
// building into the retained scratch buffers so steady-state compaction
// is allocation-free.
func (c *CDF) compact() {
	if len(c.pending) == 0 {
		return
	}
	sort.Float64s(c.pending)
	merged, mcounts := c.scratchFor(len(c.vals) + len(c.pending))
	i, j := 0, 0
	for i < len(c.vals) || j < len(c.pending) {
		if j >= len(c.pending) || (i < len(c.vals) && c.vals[i] < c.pending[j]) {
			merged = append(merged, c.vals[i])
			mcounts = append(mcounts, c.counts[i])
			i++
			continue
		}
		// Consume a run of equal staged values, folding in an equal
		// existing run if one exists.
		v := c.pending[j]
		var n int64
		for j < len(c.pending) && c.pending[j] == v {
			n++
			j++
		}
		if i < len(c.vals) && c.vals[i] == v {
			n += c.counts[i]
			i++
		}
		merged = append(merged, v)
		mcounts = append(mcounts, n)
	}
	c.swapInRuns(merged, mcounts)
	c.pending = c.pending[:0]
	c.cumStale = true
}

// ensureIndexed compacts pending samples and rebuilds the cumulative
// index, reusing its buffer.
func (c *CDF) ensureIndexed() {
	c.compact()
	if !c.cumStale && len(c.cum) == len(c.vals) {
		return
	}
	if cap(c.cum) < len(c.vals) {
		c.cum = make([]int64, len(c.vals))
	} else {
		c.cum = c.cum[:len(c.vals)]
	}
	var run int64
	for i, n := range c.counts {
		run += n
		c.cum[i] = run
	}
	c.cumStale = false
}

// N returns the sample count.
func (c *CDF) N() int { return int(c.total) }

// Distinct returns the number of distinct sample values — the CDF's
// actual storage footprint.
func (c *CDF) Distinct() int {
	c.compact()
	return len(c.vals)
}

// FractionAtMost returns the empirical P(X <= x); 0 with no samples.
// The bound is found by binary search over the runs — O(log distinct)
// even when a large fraction of the samples equal x (the pooled win20
// distribution is mostly exact zeros, which the previous linear
// advance over equal samples degraded on).
func (c *CDF) FractionAtMost(x float64) float64 {
	if c.total == 0 {
		return 0
	}
	c.ensureIndexed()
	// First run strictly greater than x; everything below is ≤ x.
	i := sort.Search(len(c.vals), func(i int) bool { return c.vals[i] > x })
	if i == 0 {
		return 0
	}
	return float64(c.cum[i-1]) / float64(c.total)
}

// Quantile returns the q-quantile (q in [0,1]) using the nearest-rank
// method; 0 with no samples.
func (c *CDF) Quantile(q float64) float64 {
	if c.total == 0 {
		return 0
	}
	c.ensureIndexed()
	if q <= 0 {
		return c.vals[0]
	}
	if q >= 1 {
		return c.vals[len(c.vals)-1]
	}
	idx := int64(q * float64(c.total))
	if idx >= c.total {
		idx = c.total - 1
	}
	// The sample at sorted position idx lives in the first run whose
	// cumulative count exceeds idx.
	i := sort.Search(len(c.cum), func(i int) bool { return c.cum[i] > idx })
	return c.vals[i]
}

// Mean returns the sample mean; 0 with no samples. The sum is taken in
// ascending value order with per-run multiplication.
func (c *CDF) Mean() float64 {
	if c.total == 0 {
		return 0
	}
	c.compact()
	var sum float64
	for i, v := range c.vals {
		sum += float64(v * float64(c.counts[i]))
	}
	return sum / float64(c.total)
}

// Max returns the largest sample; 0 with no samples.
func (c *CDF) Max() float64 {
	if c.total == 0 {
		return 0
	}
	c.compact()
	return c.vals[len(c.vals)-1]
}

// Point is one (x, P(X<=x)) pair of a rendered CDF series.
type Point struct {
	X, F float64
}

// Grid evaluates the CDF at evenly spaced points spanning [lo, hi],
// producing a plottable series like the paper's figures.
func (c *CDF) Grid(lo, hi float64, points int) []Point {
	if points < 2 {
		points = 2
	}
	out := make([]Point, points)
	step := (hi - lo) / float64(points-1)
	for i := range out {
		x := lo + float64(float64(i)*step)
		out[i] = Point{X: x, F: c.FractionAtMost(x)}
	}
	return out
}

// samples returns the sorted samples, expanded from the runs, for
// tests: its size is O(samples), which is exactly what run-length
// storage exists to avoid — production paths use Runs or Merge.
func (c *CDF) samples() []float64 {
	c.compact()
	out := make([]float64, 0, c.total)
	for i, v := range c.vals {
		for k := int64(0); k < c.counts[i]; k++ {
			out = append(out, v)
		}
	}
	return out
}

// Runs calls fn for every (value, count) run in ascending value order.
func (c *CDF) Runs(fn func(v float64, count int64)) {
	c.compact()
	for i, v := range c.vals {
		fn(v, c.counts[i])
	}
}
