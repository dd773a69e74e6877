package analysis

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// Window lengths used by the paper.
const (
	// WindowShort is the 20-minute window of Figure 3.
	WindowShort = 20 * time.Minute
	// WindowHour is the 1-hour window of Table 6.
	WindowHour = time.Hour
)

// pathStats accumulates per-(method, path) statistics.
type pathStats struct {
	probes     int64 // observations
	firstSent  int64
	firstLost  int64
	secondSent int64
	secondLost int64
	bothLost   int64 // among two-copy probes
	effLost    int64 // effective loss (all copies lost)
	latSumNS   float64
	latN       int64
	// Per-copy latency sums let Table 5 infer single-tactic rows
	// ("direct*", "lat*") from the first packets of two-packet pairs.
	lat1SumNS float64
	lat1N     int64
	lat2SumNS float64
	lat2N     int64
}

// add folds another record's counters into ps.
func (ps *pathStats) add(os *pathStats) {
	ps.probes += os.probes
	ps.firstSent += os.firstSent
	ps.firstLost += os.firstLost
	ps.secondSent += os.secondSent
	ps.secondLost += os.secondLost
	ps.bothLost += os.bothLost
	ps.effLost += os.effLost
	ps.latSumNS += os.latSumNS
	ps.latN += os.latN
	ps.lat1SumNS += os.lat1SumNS
	ps.lat1N += os.lat1N
	ps.lat2SumNS += os.lat2SumNS
	ps.lat2N += os.lat2N
}

// windowState tracks the in-progress window for one (method, path).
type windowState struct {
	index int64 // window ordinal; -1 when unused
	sent  int64
	lost  int64
}

// pathWindows packs a path's 20-minute and 1-hour windows side by side
// so the per-probe hot path touches one cache line instead of two
// parallel arrays.
type pathWindows struct {
	w20 windowState
	w60 windowState
}

// Aggregator consumes Observations and produces the paper's tables and
// figures. Create with NewAggregator; feed with Observe; query with the
// Table*/Figure* methods after the campaign (queries are also safe
// mid-campaign — they snapshot current state; in-progress windows are not
// flushed until the next observation crosses their boundary or Flush is
// called).
type Aggregator struct {
	methods []string
	nHosts  int
	nPaths  int

	// slot[m*nPaths+src*nHosts+dst] numbers the (method, path)'s record
	// in the stats and wins slabs; 0 means never observed. It is one flat
	// array rather than a row per method: a row header would be a third
	// dependent load on Observe's way to a record, after the slot and the
	// chunk. Records are handed out in order within a cell, one per
	// observed (method, path), so an aggregator's size follows what its
	// campaign measured, not methods × hosts² — a thousand-node cell
	// observes ~3% of its ordered pairs. The slabs are chunked (record si
	// lives at [si>>recShift][si&recMask]): a record never moves, and
	// growing allocates one more chunk instead of a larger copy, so a
	// cell's peak is what it keeps. They stay two slabs, counters apart
	// from windows, because Merge, the codec and every query walk the
	// counters alone. Record 0 of stats is the shared all-zero record
	// every unobserved path reads (see stat); record 0 of wins is unused.
	// Reset rewinds nrec to that sentinel and keeps the chunks, so warm
	// cells allocate only past the high-water mark.
	slot  []int32
	stats [][]pathStats
	wins  [][]pathWindows // parallel to stats
	nrec  int32           // records handed out, sentinel included

	// touched[m] lists the path indices with at least one observation
	// for method m (slot != 0, appended when the slot is assigned).
	// Reset, Flush, and every per-path query iterate this list instead
	// of the full nHosts² index, so their cost scales with paths
	// actually probed. Rows are kept sorted lazily (touchedSorted)
	// because queries that accumulate floats or feed CDFs must visit
	// paths in the same ascending order a full scan would.
	touched       [][]int32
	touchedSorted []bool

	// Window machinery: the 20-minute windows (Figure 3) pool flushed
	// samples across paths per method; the 1-hour windows (Table 6)
	// count path-hours whose effective loss rate exceeded each
	// threshold.
	win20Rates  []*CDF
	hourCounts  [][]int64 // [method][threshold index]
	hourPeriods []int64   // total flushed path-hours per method
	// hourMax tracks the single worst hour across methods ("During the
	// worst one-hour period monitored, the average loss rate was over
	// 13%"): computed over the direct method if present, else method 0.
	hourMaxRate float64

	// Diurnal tallies: effective loss by hour of the virtual day, per
	// method (§4.2: "During many hours of the day, the Internet is
	// mostly quiescent and loss rates are low").
	hodSent [][24]int64
	hodLost [][24]int64

	// wl holds the application-workload metric family (workload.go);
	// nil until a workload campaign first feeds it, so probe-only
	// aggregators pay nothing.
	wl *WorkloadStats

	// res holds the failure-resilience metric family (resilience.go);
	// nil until a scenario campaign first feeds it.
	res *ResilienceStats
}

// Table6Thresholds are the loss-percentage thresholds of Table 6.
var Table6Thresholds = []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}

// The record slabs grow in chunks of recChunk records (~600 kB of
// counters and windows), the last one cut to what is left of methods ×
// hosts² + 1, so a paper-size aggregator is one exact allocation of each
// that never grows.
const (
	recShift = 12
	recChunk = 1 << recShift
	recMask  = recChunk - 1
)

// NewAggregator creates an aggregator for a campaign with the given
// method names over an nHosts mesh.
func NewAggregator(methods []string, nHosts int) *Aggregator {
	if len(methods) == 0 || nHosts < 2 {
		panic("analysis: aggregator needs methods and at least 2 hosts")
	}
	nm := len(methods)
	a := &Aggregator{
		methods:       append([]string(nil), methods...),
		nHosts:        nHosts,
		nPaths:        nHosts * nHosts,
		win20Rates:    make([]*CDF, nm),
		hourCounts:    make([][]int64, nm),
		hourPeriods:   make([]int64, nm),
		hodSent:       make([][24]int64, nm),
		hodLost:       make([][24]int64, nm),
		touched:       make([][]int32, nm),
		touchedSorted: make([]bool, nm),
	}
	// The per-method arrays are carved from shared slabs (an aggregator
	// is built per sweep cell, so constructor allocation count scales
	// with the grid). Full-slice-expression carving keeps an append on
	// one row from stomping its neighbor: a touched list that outgrows
	// its carve — room for every path, or for the paths one record chunk
	// can hold — moves to its own array.
	a.growSlabs()
	a.nrec = 1
	tcap := min(a.nPaths, recChunk)
	slotSlab := make([]int32, nm*(a.nPaths+tcap))
	touchSlab := slotSlab[nm*a.nPaths:]
	a.slot = slotSlab[: nm*a.nPaths : nm*a.nPaths]
	hourSlab := make([]int64, nm*len(Table6Thresholds))
	cdfs := make([]CDF, nm)
	for m := 0; m < nm; m++ {
		a.touched[m] = touchSlab[m*tcap : m*tcap : (m+1)*tcap]
		a.touchedSorted[m] = true
		a.win20Rates[m] = &cdfs[m]
		a.hourCounts[m] = hourSlab[m*len(Table6Thresholds) : (m+1)*len(Table6Thresholds) : (m+1)*len(Table6Thresholds)]
	}
	return a
}

// Reset returns the aggregator to its freshly constructed state — same
// method list, same host count, every counter, window, pooled sample,
// and diurnal tally zeroed — while retaining all storage. A campaign
// driver that reuses one aggregator across cells gets query results
// identical to a NewAggregator per cell without re-paying its
// allocations.
func (a *Aggregator) Reset() {
	a.nrec = 1
	for m := range a.methods {
		// Only observed paths hold a slot; clearing just those keeps
		// cell turnover O(paths probed), not O(hosts²).
		for _, pi := range a.touched[m] {
			a.slot[m*a.nPaths+int(pi)] = 0
		}
		a.touched[m] = a.touched[m][:0]
		a.touchedSorted[m] = true
		a.win20Rates[m].Reset()
		clear(a.hourCounts[m])
		a.hodSent[m] = [24]int64{}
		a.hodLost[m] = [24]int64{}
	}
	clear(a.hourPeriods)
	a.hourMaxRate = 0
	if a.wl != nil {
		a.wl.reset()
	}
	if a.res != nil {
		a.res.reset()
	}
}

// Methods returns the method names.
func (a *Aggregator) Methods() []string { return a.methods }

// MethodIndex returns the index of the named method, or -1.
func (a *Aggregator) MethodIndex(name string) int {
	for i, m := range a.methods {
		if m == name {
			return i
		}
	}
	return -1
}

func (a *Aggregator) pathIndex(src, dst int) int { return src*a.nHosts + dst }

// stat returns (method m, path pi)'s counters for reading. A path never
// observed reads the shared all-zero record, exactly what a dense
// methods × hosts² slab would hold for it; writers go through addSlot.
func (a *Aggregator) stat(m, pi int) *pathStats { return a.rec(a.slot[m*a.nPaths+pi]) }

// rec and win resolve a record number to its place in the chunks.
func (a *Aggregator) rec(si int32) *pathStats   { return &a.stats[si>>recShift][si&recMask] }
func (a *Aggregator) win(si int32) *pathWindows { return &a.wins[si>>recShift][si&recMask] }

// growSlabs adds one chunk to each record slab: recChunk records, or
// the rest of the sentinel plus one record per (method, path) if fewer
// are left.
func (a *Aggregator) growSlabs() {
	size := min(len(a.methods)*a.nPaths+1-len(a.stats)*recChunk, recChunk)
	a.stats = append(a.stats, make([]pathStats, size))
	a.wins = append(a.wins, make([]pathWindows, size))
}

// addSlot assigns (method m, path pi) the next record in the slabs,
// reset, and lists the path as touched. A chunk is allocated only when
// the last one is full.
func (a *Aggregator) addSlot(m, pi int) int32 {
	si := a.nrec
	a.nrec++
	if int(si>>recShift) == len(a.stats) {
		a.growSlabs()
	}
	*a.rec(si) = pathStats{}
	*a.win(si) = pathWindows{
		w20: windowState{index: -1},
		w60: windowState{index: -1},
	}
	a.slot[m*a.nPaths+pi] = si
	a.touched[m] = append(a.touched[m], int32(pi))
	a.touchedSorted[m] = false
	return si
}

// touchedPaths returns method m's observed path indices in ascending
// order. Queries iterate it in place of a full 0..nPaths scan; ascending
// order makes float accumulations and CDF feeds visit paths exactly as
// the full scan would, so results are bit-identical (skipped paths are
// all-zero and contribute exact 0.0 terms or fail every filter).
func (a *Aggregator) touchedPaths(m int) []int32 {
	if !a.touchedSorted[m] {
		slices.Sort(a.touched[m])
		a.touchedSorted[m] = true
	}
	return a.touched[m]
}

// Observe folds one probe outcome into every statistic. Observations for
// a given (method, path) must arrive in nondecreasing time order (window
// bookkeeping); different paths may interleave arbitrarily.
func (a *Aggregator) Observe(o Observation) {
	// Thin inlinable wrapper: the callee takes a pointer, so the
	// per-probe call moves no 64-byte Observation copy.
	a.observe(&o)
}

func (a *Aggregator) observe(o *Observation) {
	if err := o.Validate(len(a.methods), a.nHosts); err != nil {
		panic(err)
	}
	pi := a.pathIndex(o.Src, o.Dst)
	si := a.slot[o.Method*a.nPaths+pi]
	if si == 0 {
		si = a.addSlot(o.Method, pi)
	}
	ps := a.rec(si)
	ps.probes++
	ps.firstSent++
	if o.Lost[0] {
		ps.firstLost++
	}
	if o.Copies == 2 {
		ps.secondSent++
		if o.Lost[1] {
			ps.secondLost++
		}
		if o.Lost[0] && o.Lost[1] {
			ps.bothLost++
		}
	}
	eff := o.EffectiveLost()
	if eff {
		ps.effLost++
	}
	if lat, ok := o.EffectiveLatency(); ok {
		ps.latSumNS += float64(lat)
		ps.latN++
	}
	if !o.Lost[0] {
		ps.lat1SumNS += float64(o.Lat[0])
		ps.lat1N++
	}
	if o.Copies == 2 && !o.Lost[1] {
		ps.lat2SumNS += float64(o.Lat[1])
		ps.lat2N++
	}

	// The two window kinds are advanced inline — not through a generic
	// observeWindow(flush func(...)) — because this is the per-probe hot
	// path: the flush closures would capture o.Method and escape,
	// costing two allocations per observation.
	pw := a.win(si)
	if idx := o.Time / int64(WindowShort); pw.w20.index != idx {
		if pw.w20.index >= 0 && pw.w20.sent > 0 {
			a.win20Rates[o.Method].Add(float64(pw.w20.lost) / float64(pw.w20.sent))
		}
		pw.w20.index = idx
		pw.w20.sent, pw.w20.lost = 0, 0
	}
	pw.w20.sent++
	if eff {
		pw.w20.lost++
	}

	if idx := o.Time / int64(WindowHour); pw.w60.index != idx {
		if pw.w60.index >= 0 && pw.w60.sent > 0 {
			a.flushHour(o.Method, float64(pw.w60.lost)/float64(pw.w60.sent))
		}
		pw.w60.index = idx
		pw.w60.sent, pw.w60.lost = 0, 0
	}
	pw.w60.sent++
	if eff {
		pw.w60.lost++
	}

	hod := int(o.Time/int64(time.Hour)) % 24
	if hod < 0 {
		hod += 24
	}
	a.hodSent[o.Method][hod]++
	if eff {
		a.hodLost[o.Method][hod]++
	}
}

// DiurnalProfile returns the effective loss rate (fraction) per hour of
// the virtual day for one method. Hours with no samples report 0.
func (a *Aggregator) DiurnalProfile(method int) [24]float64 {
	var out [24]float64
	for h := 0; h < 24; h++ {
		if s := a.hodSent[method][h]; s > 0 {
			out[h] = float64(a.hodLost[method][h]) / float64(s)
		}
	}
	return out
}

func (a *Aggregator) flushHour(method int, rate float64) {
	a.hourPeriods[method]++
	pct := rate * 100
	for i, thr := range Table6Thresholds {
		if pct > thr {
			a.hourCounts[method][i]++
		}
	}
	if rate > a.hourMaxRate {
		a.hourMaxRate = rate
	}
}

// Flush finalizes all in-progress windows. Call once after the campaign
// ends so partial windows contribute their samples.
func (a *Aggregator) Flush() {
	for m := range a.methods {
		for _, pi := range a.touchedPaths(m) {
			pw := a.win(a.slot[m*a.nPaths+int(pi)])
			if w := &pw.w20; w.index >= 0 && w.sent > 0 {
				a.win20Rates[m].Add(float64(w.lost) / float64(w.sent))
				w.index, w.sent, w.lost = -1, 0, 0
			}
			if w := &pw.w60; w.index >= 0 && w.sent > 0 {
				a.flushHour(m, float64(w.lost)/float64(w.sent))
				w.index, w.sent, w.lost = -1, 0, 0
			}
		}
	}
}

// Merge folds other's statistics into a, so replicate campaigns run
// independently (different seeds, different workers) can be combined into
// one set of tables. Both aggregators must have been built with the same
// method list and host count. Merge flushes both sides first, so every
// in-progress window contributes before counters are summed; after the
// merge, a's path counters, window samples, high-loss-hour counts, and
// diurnal tallies are the element-wise sums. Merging the same aggregators
// in any order yields identical query results (sums commute; CDF samples
// merge as multisets and queries sort). other is flushed but otherwise
// left intact.
func (a *Aggregator) Merge(other *Aggregator) error {
	if other == nil {
		return errors.New("analysis: Merge with nil aggregator")
	}
	if a == other {
		return errors.New("analysis: Merge of an aggregator with itself")
	}
	if a.nHosts != other.nHosts {
		return fmt.Errorf("analysis: Merge host count mismatch: %d vs %d",
			a.nHosts, other.nHosts)
	}
	if len(a.methods) != len(other.methods) {
		return fmt.Errorf("analysis: Merge method count mismatch: %d vs %d",
			len(a.methods), len(other.methods))
	}
	for i := range a.methods {
		if a.methods[i] != other.methods[i] {
			return fmt.Errorf("analysis: Merge method %d mismatch: %q vs %q",
				i, a.methods[i], other.methods[i])
		}
	}
	a.Flush()
	other.Flush()
	for m := range a.methods {
		for _, pi := range other.touchedPaths(m) {
			si := a.slot[m*a.nPaths+int(pi)]
			if si == 0 {
				si = a.addSlot(m, int(pi))
			}
			a.rec(si).add(other.stat(m, int(pi)))
		}
		a.win20Rates[m].Merge(other.win20Rates[m])
		for i := range a.hourCounts[m] {
			a.hourCounts[m][i] += other.hourCounts[m][i]
		}
		a.hourPeriods[m] += other.hourPeriods[m]
		for h := 0; h < 24; h++ {
			a.hodSent[m][h] += other.hodSent[m][h]
			a.hodLost[m][h] += other.hodLost[m][h]
		}
	}
	if other.hourMaxRate > a.hourMaxRate {
		a.hourMaxRate = other.hourMaxRate
	}
	if other.wl != nil {
		if err := a.ensureWorkload().merge(other.wl); err != nil {
			return err
		}
	}
	if other.res != nil {
		a.ensureResilience().merge(other.res)
	}
	return nil
}

// MethodTotals is one row of Table 5 / Table 7.
type MethodTotals struct {
	Method string
	// Probes is the number of observations.
	Probes int64
	// FirstLossPct (1lp) and SecondLossPct (2lp) are per-copy loss
	// percentages; SecondLossPct is meaningful only for pair methods.
	FirstLossPct  float64
	SecondLossPct float64
	// TotalLossPct (totlp) is the effective loss percentage.
	TotalLossPct float64
	// CondLossPct (clp) is the conditional loss percentage of the
	// second copy given the first was lost; NaN-free: 0 when undefined.
	CondLossPct float64
	// MeanLatency is the mean effective latency of delivered probes.
	MeanLatency time.Duration
	// Pair reports whether the method sends two copies.
	Pair bool
}

// Totals computes the aggregate row for one method across all paths.
func (a *Aggregator) Totals(method int) MethodTotals {
	var sum pathStats
	for _, pi := range a.touchedPaths(method) {
		sum.add(a.stat(method, int(pi)))
	}
	pct := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return 100 * float64(num) / float64(den)
	}
	mt := MethodTotals{
		Method:        a.methods[method],
		Probes:        sum.probes,
		FirstLossPct:  pct(sum.firstLost, sum.firstSent),
		SecondLossPct: pct(sum.secondLost, sum.secondSent),
		TotalLossPct:  pct(sum.effLost, sum.probes),
		CondLossPct:   pct(sum.bothLost, sum.firstLost),
		Pair:          sum.secondSent > 0,
	}
	if sum.latN > 0 {
		mt.MeanLatency = time.Duration(sum.latSumNS / float64(sum.latN))
	}
	return mt
}

// InferredSingle derives a single-tactic row from one copy of a pair
// method, the way the paper infers "direct*" and "lat*" from the first
// packets of "direct rand" and "lat loss" (Table 5's asterisks). copy is
// 0 or 1.
func (a *Aggregator) InferredSingle(method, copy int, name string) MethodTotals {
	var sent, lost, latN int64
	var latSum float64
	for _, pi := range a.touchedPaths(method) {
		ps := a.stat(method, int(pi))
		if copy == 0 {
			sent += ps.firstSent
			lost += ps.firstLost
			latSum += ps.lat1SumNS
			latN += ps.lat1N
		} else {
			sent += ps.secondSent
			lost += ps.secondLost
			latSum += ps.lat2SumNS
			latN += ps.lat2N
		}
	}
	mt := MethodTotals{Method: name, Probes: sent}
	if sent > 0 {
		mt.FirstLossPct = 100 * float64(lost) / float64(sent)
		mt.TotalLossPct = mt.FirstLossPct
	}
	if latN > 0 {
		mt.MeanLatency = time.Duration(latSum / float64(latN))
	}
	return mt
}

// Table5 returns the totals for every method, in method order.
func (a *Aggregator) Table5() []MethodTotals {
	out := make([]MethodTotals, len(a.methods))
	for m := range a.methods {
		out[m] = a.Totals(m)
	}
	return out
}

// Table6 is the high-loss-hours table: Counts[m][k] is the number of
// path-hours in which method m's effective loss rate exceeded
// Table6Thresholds[k] percent.
type Table6 struct {
	Methods    []string
	Thresholds []float64
	Counts     [][]int64
	// Periods is the total number of flushed path-hours per method
	// ("an equal number of total sampling periods for each method").
	Periods []int64
	// WorstHourPct is the highest hourly loss rate observed.
	WorstHourPct float64
}

// HighLossHours computes Table 6. Call Flush first to include the final
// partial hour.
func (a *Aggregator) HighLossHours() Table6 {
	t6 := Table6{
		Methods:      a.methods,
		Thresholds:   Table6Thresholds,
		Counts:       make([][]int64, len(a.methods)),
		Periods:      append([]int64(nil), a.hourPeriods...),
		WorstHourPct: a.hourMaxRate * 100,
	}
	for m := range a.methods {
		t6.Counts[m] = append([]int64(nil), a.hourCounts[m]...)
	}
	return t6
}

// PathLossCDF returns Figure 2's distribution: per-path long-term
// effective loss rate (in percent) for the given method, across paths
// with at least minProbes observations.
func (a *Aggregator) PathLossCDF(method, minProbes int) *CDF {
	c := &CDF{}
	for _, pi := range a.touchedPaths(method) {
		ps := a.stat(method, int(pi))
		if ps.probes < int64(minProbes) || ps.probes == 0 {
			continue
		}
		c.Add(100 * float64(ps.effLost) / float64(ps.probes))
	}
	return c
}

// WindowRateCDF returns Figure 3's distribution: pooled 20-minute
// effective loss rates (fraction in [0,1]) for the given method.
func (a *Aggregator) WindowRateCDF(method int) *CDF {
	return a.win20Rates[method]
}

// CLPByPathCDF returns Figure 4's distribution: per-path conditional loss
// probability (percent) of the second copy, across paths with at least
// one first-copy loss, for a two-copy method.
func (a *Aggregator) CLPByPathCDF(method int) *CDF {
	c := &CDF{}
	for _, pi := range a.touchedPaths(method) {
		ps := a.stat(method, int(pi))
		if ps.firstLost == 0 || ps.secondSent == 0 {
			continue
		}
		c.Add(100 * float64(ps.bothLost) / float64(ps.firstLost))
	}
	return c
}

// PathLatencyCDF returns Figure 5's distribution: per-path mean effective
// latency (milliseconds) for the given method, restricted to paths whose
// mean latency under the reference method exceeds minRef. Pass method as
// reference (and 0 floor) to include all paths.
func (a *Aggregator) PathLatencyCDF(method, refMethod int, minRef time.Duration) *CDF {
	c := &CDF{}
	for _, pi := range a.touchedPaths(method) {
		ref := a.stat(refMethod, int(pi))
		if ref.latN == 0 {
			continue
		}
		refLat := time.Duration(ref.latSumNS / float64(ref.latN))
		if refLat < minRef {
			continue
		}
		ps := a.stat(method, int(pi))
		if ps.latN == 0 {
			continue
		}
		c.Add(ps.latSumNS / float64(ps.latN) / float64(time.Millisecond))
	}
	return c
}

// pathCount returns how many ordered paths have observations for the
// method.
func (a *Aggregator) pathCount(method int) int {
	// Membership in touched is exactly "holds a slot", i.e. probes > 0.
	return len(a.touched[method])
}

// pathTotals exposes one path's raw counters for a method to tests.
func (a *Aggregator) pathTotals(method, src, dst int) (probes, firstLost, bothLost, effLost int64) {
	ps := a.stat(method, a.pathIndex(src, dst))
	return ps.probes, ps.firstLost, ps.bothLost, ps.effLost
}

// String summarizes the aggregator.
func (a *Aggregator) String() string {
	var total int64
	for si := int32(1); si < a.nrec; si++ {
		total += a.rec(si).probes
	}
	return fmt.Sprintf("analysis.Aggregator{methods=%d hosts=%d probes=%d}",
		len(a.methods), a.nHosts, total)
}
