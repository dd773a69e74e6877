package analysis

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// denseAgg is the reference model the slot-indexed Aggregator is held
// to: one pathStats and one pathWindows per (method, path) in plain
// [][] slabs, every query and the encoder a full 0..hosts² scan, Reset
// a reallocation. It is what the aggregator was before its records
// became touch-sized, kept here only.
type denseAgg struct {
	methods     []string
	n           int
	perPath     [][]pathStats
	wins        [][]pathWindows
	win20       []*CDF
	hourCounts  [][]int64
	hourPeriods []int64
	hourMax     float64
	hodSent     [][24]int64
	hodLost     [][24]int64
}

func newDenseAgg(methods []string, n int) *denseAgg {
	d := &denseAgg{methods: methods, n: n}
	d.reset()
	return d
}

func (d *denseAgg) reset() {
	nm := len(d.methods)
	d.perPath = make([][]pathStats, nm)
	d.wins = make([][]pathWindows, nm)
	d.win20 = make([]*CDF, nm)
	d.hourCounts = make([][]int64, nm)
	d.hourPeriods = make([]int64, nm)
	d.hourMax = 0
	d.hodSent = make([][24]int64, nm)
	d.hodLost = make([][24]int64, nm)
	for m := range d.methods {
		d.perPath[m] = make([]pathStats, d.n*d.n)
		d.wins[m] = make([]pathWindows, d.n*d.n)
		for p := range d.wins[m] {
			d.wins[m][p] = pathWindows{w20: windowState{index: -1}, w60: windowState{index: -1}}
		}
		d.win20[m] = &CDF{}
		d.hourCounts[m] = make([]int64, len(Table6Thresholds))
	}
}

func (d *denseAgg) flushHour(m int, rate float64) {
	d.hourPeriods[m]++
	for i, thr := range Table6Thresholds {
		if rate*100 > thr {
			d.hourCounts[m][i]++
		}
	}
	if rate > d.hourMax {
		d.hourMax = rate
	}
}

// roll closes w if the observation falls in another window, feeding
// the finished window's loss rate to emit, and counts the observation.
func roll(w *windowState, idx int64, lost bool, emit func(rate float64)) {
	if w.index != idx {
		if w.index >= 0 && w.sent > 0 {
			emit(float64(w.lost) / float64(w.sent))
		}
		*w = windowState{index: idx}
	}
	w.sent++
	if lost {
		w.lost++
	}
}

func (d *denseAgg) observe(o Observation) {
	m, pi := o.Method, o.Src*d.n+o.Dst
	ps := &d.perPath[m][pi]
	ps.probes++
	ps.firstSent++
	if o.Lost[0] {
		ps.firstLost++
	} else {
		ps.lat1SumNS += float64(o.Lat[0])
		ps.lat1N++
	}
	if o.Copies == 2 {
		ps.secondSent++
		if o.Lost[1] {
			ps.secondLost++
		} else {
			ps.lat2SumNS += float64(o.Lat[1])
			ps.lat2N++
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
	pw := &d.wins[m][pi]
	roll(&pw.w20, o.Time/int64(WindowShort), eff, d.win20[m].Add)
	roll(&pw.w60, o.Time/int64(WindowHour), eff, func(r float64) { d.flushHour(m, r) })
	hod := int(o.Time/int64(time.Hour)) % 24
	d.hodSent[m][hod]++
	if eff {
		d.hodLost[m][hod]++
	}
}

func (d *denseAgg) flush() {
	for m := range d.methods {
		for pi := range d.wins[m] {
			pw := &d.wins[m][pi]
			if w := &pw.w20; w.index >= 0 && w.sent > 0 {
				d.win20[m].Add(float64(w.lost) / float64(w.sent))
				*w = windowState{index: -1}
			}
			if w := &pw.w60; w.index >= 0 && w.sent > 0 {
				d.flushHour(m, float64(w.lost)/float64(w.sent))
				*w = windowState{index: -1}
			}
		}
	}
}

func (d *denseAgg) merge(o *denseAgg) {
	d.flush()
	o.flush()
	for m := range d.methods {
		for pi := range d.perPath[m] {
			d.perPath[m][pi].add(&o.perPath[m][pi])
		}
		d.win20[m].Merge(o.win20[m])
		for i := range d.hourCounts[m] {
			d.hourCounts[m][i] += o.hourCounts[m][i]
		}
		d.hourPeriods[m] += o.hourPeriods[m]
		for h := 0; h < 24; h++ {
			d.hodSent[m][h] += o.hodSent[m][h]
			d.hodLost[m][h] += o.hodLost[m][h]
		}
	}
	if o.hourMax > d.hourMax {
		d.hourMax = o.hourMax
	}
}

// encode writes the probe-only aggregator payload from the dense slabs.
func (d *denseAgg) encode() []byte {
	d.flush()
	w := &binWriter{}
	w.u8(SnapshotCodecVersion)
	w.u8(0)
	w.u32(uint32(len(d.methods)))
	w.u32(uint32(d.n))
	for _, m := range d.methods {
		w.str(m)
	}
	for m := range d.methods {
		for pi := range d.perPath[m] {
			ps := &d.perPath[m][pi]
			for _, v := range []int64{ps.probes, ps.firstSent, ps.firstLost, ps.secondSent, ps.secondLost, ps.bothLost, ps.effLost} {
				w.i64(v)
			}
			w.f64(ps.latSumNS)
			w.i64(ps.latN)
			w.f64(ps.lat1SumNS)
			w.i64(ps.lat1N)
			w.f64(ps.lat2SumNS)
			w.i64(ps.lat2N)
		}
	}
	for m := range d.methods {
		w.cdfRuns(d.win20[m])
	}
	w.u32(uint32(len(Table6Thresholds)))
	for m := range d.methods {
		for _, c := range d.hourCounts[m] {
			w.i64(c)
		}
		w.i64(d.hourPeriods[m])
	}
	w.f64(d.hourMax)
	for m := range d.methods {
		for h := 0; h < 24; h++ {
			w.i64(d.hodSent[m][h])
		}
		for h := 0; h < 24; h++ {
			w.i64(d.hodLost[m][h])
		}
	}
	return w.buf
}

// cdfRun is one (value, count) run of a CDF.
type cdfRun struct {
	v float64
	n int64
}

// runs lists c's runs: equal runs are equal samples, compared at a cost
// that does not grow with the counts merges multiply.
func runs(c *CDF) (out []cdfRun) {
	c.Runs(func(v float64, n int64) { out = append(out, cdfRun{v, n}) })
	return out
}

// checkQueries compares every per-path query of a against full scans
// of the dense model, without mutating either.
func checkQueries(t *testing.T, label string, a *Aggregator, d *denseAgg) {
	t.Helper()
	for m := range d.methods {
		var sum pathStats
		paths := 0
		loss, clp, lat := &CDF{}, &CDF{}, &CDF{}
		for pi := range d.perPath[m] {
			ps := &d.perPath[m][pi]
			sum.add(ps)
			if ps.probes > 0 {
				paths++
				loss.Add(100 * float64(ps.effLost) / float64(ps.probes))
			}
			if ps.firstLost > 0 && ps.secondSent > 0 {
				clp.Add(100 * float64(ps.bothLost) / float64(ps.firstLost))
			}
			// Reference method 0, 1 ms floor: a path enters when both
			// methods delivered on it.
			if ref := &d.perPath[0][pi]; ref.latN > 0 && ps.latN > 0 &&
				time.Duration(ref.latSumNS/float64(ref.latN)) >= time.Millisecond {
				lat.Add(ps.latSumNS / float64(ps.latN) / float64(time.Millisecond))
			}
			src, dst := pi/d.n, pi%d.n
			if p, fl, bl, el := a.pathTotals(m, src, dst); p != ps.probes || fl != ps.firstLost || bl != ps.bothLost || el != ps.effLost {
				t.Fatalf("%s: pathTotals(%d,%d,%d) = %d %d %d %d, dense %+v", label, m, src, dst, p, fl, bl, el, *ps)
			}
		}
		got := a.Totals(m)
		if got.Probes != sum.probes || got.Pair != (sum.secondSent > 0) ||
			(sum.probes > 0 && got.TotalLossPct != 100*float64(sum.effLost)/float64(sum.probes)) ||
			(sum.latN > 0 && got.MeanLatency != time.Duration(sum.latSumNS/float64(sum.latN))) {
			t.Fatalf("%s: Totals(%d) = %+v, dense sums %+v", label, m, got, sum)
		}
		if inf := a.InferredSingle(m, 1, "x"); inf.Probes != sum.secondSent ||
			(sum.lat2N > 0 && inf.MeanLatency != time.Duration(sum.lat2SumNS/float64(sum.lat2N))) {
			t.Fatalf("%s: InferredSingle(%d, second copy) = %+v, dense sums %+v", label, m, inf, sum)
		}
		if a.pathCount(m) != paths {
			t.Fatalf("%s: pathCount(%d) = %d, dense %d", label, m, a.pathCount(m), paths)
		}
		for name, pair := range map[string][2]*CDF{
			"PathLossCDF":    {a.PathLossCDF(m, 1), loss},
			"CLPByPathCDF":   {a.CLPByPathCDF(m), clp},
			"PathLatencyCDF": {a.PathLatencyCDF(m, 0, time.Millisecond), lat},
			"WindowRateCDF":  {a.WindowRateCDF(m), d.win20[m]},
		} {
			if !reflect.DeepEqual(runs(pair[0]), runs(pair[1])) {
				t.Fatalf("%s: %s(%d) differs from the dense scan", label, name, m)
			}
		}
	}
	if t6 := a.HighLossHours(); !reflect.DeepEqual(t6.Counts, d.hourCounts) ||
		!reflect.DeepEqual(t6.Periods, d.hourPeriods) || t6.WorstHourPct != d.hourMax*100 {
		t.Fatalf("%s: HighLossHours = %+v, dense counts %v periods %v max %v", label, t6, d.hourCounts, d.hourPeriods, d.hourMax)
	}
}

// The slot/dense schedules run over a pool of slotPool aggregators of
// slotHosts hosts and these methods; "direct rand" sends two copies.
const slotPool, slotHosts = 3, 9

var slotMethods = []string{"direct", "loss", "direct rand"}

// slotSteps is the length of a seed's schedule, and the most steps a
// script runs: past it the bytes are ignored, so a fuzz input's cost is
// bounded.
const slotSteps = 400

// slotMaxWeight bounds how many cells' observations one aggregator
// holds through merges (a Reset starts it at 1): a merge past it is
// skipped, so no counter a script can build comes near overflow.
const slotMaxWeight = 1 << 16

// slotMaxClockStep bounds the time between one aggregator's successive
// observations, so windows of both lengths open, roll and stay open.
const slotMaxClockStep = int64(7 * time.Minute)

// runSlotScript decodes script into Observe/Flush/Merge/Reset/
// encode→decode steps over slot aggregators and dense models in
// lockstep: every query after every step, and the encoded bytes at
// every encode and at the end, must be equal. Each step is an op byte
// (aggregator op%slotPool, kind op/slotPool%20: <12 observe, <14 flush,
// <16 merge, <18 reset, else encode+decode) and its arguments:
//
//	observe: count%60+1 observations, each method, src%span, dst
//	         offset%(hosts-1), per copy a lost byte (lost when %4 == 0)
//	         and a u16 latency ((v%300+1) ms / 2), then a 5-byte clock
//	         step (%slotMaxClockStep)
//	merge:   source offset%(slotPool-1) past the target; skipped when
//	         the two weights sum past slotMaxWeight
//	reset:   the next cell's span, 1 + b%span: never larger
//
// Multi-byte values are little-endian; a script that ends mid-step
// reads zeros, and one longer than slotSteps steps is cut there. The pool starts empty, so merges into an empty
// aggregator occur; cells after a Reset cover fewer paths than the cell
// before, so stale slots would show.
func runSlotScript(t *testing.T, script []byte) {
	next := func() uint64 {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return uint64(b)
	}
	le := func(n int) (v uint64) {
		for k := 0; k < n; k++ {
			v |= next() << (8 * k)
		}
		return v
	}
	aggs := make([]*Aggregator, slotPool)
	refs := make([]*denseAgg, slotPool)
	clock := make([]int64, slotPool) // per aggregator: observations arrive in time order
	span := make([]int, slotPool)    // hosts the current cell's probes range over
	weight := make([]int, slotPool)  // cells folded in since the last Reset
	for i := range aggs {
		aggs[i] = NewAggregator(slotMethods, slotHosts)
		refs[i] = newDenseAgg(slotMethods, slotHosts)
		span[i], weight[i] = slotHosts, 1
	}
	for step := 0; step < slotSteps && len(script) > 0; step++ {
		b := int(next())
		i := b % slotPool
		var op string
		switch k := b / slotPool % 20; {
		case k < 12:
			op = "observe"
			for c := next() % 60; ; c-- {
				o := Observation{Method: int(next() % uint64(len(slotMethods))), Src: int(next() % uint64(span[i])), Time: clock[i]}
				o.Dst = (o.Src + 1 + int(next()%(slotHosts-1))) % slotHosts
				o.Copies = 1 + o.Method/2
				for c := 0; c < o.Copies; c++ {
					o.Lost[c] = next()%4 == 0
					o.Lat[c] = time.Duration(1+le(2)%300) * time.Millisecond / 2
				}
				clock[i] += int64(le(5) % uint64(slotMaxClockStep))
				aggs[i].Observe(o)
				refs[i].observe(o)
				if c == 0 {
					break
				}
			}
		case k < 14:
			op = "flush"
			aggs[i].Flush()
			refs[i].flush()
		case k < 16:
			op = "merge"
			j := (i + 1 + int(next()%(slotPool-1))) % slotPool
			if weight[i]+weight[j] > slotMaxWeight {
				break
			}
			weight[i] += weight[j]
			if err := aggs[i].Merge(aggs[j]); err != nil {
				t.Fatal(err)
			}
			refs[i].merge(refs[j])
			checkQueries(t, fmt.Sprintf("step %d: merge source", step), aggs[j], refs[j])
		case k < 18:
			op = "reset"
			aggs[i].Reset()
			refs[i].reset()
			span[i] = 1 + int(next()%uint64(span[i])) // the next cell is no larger
			weight[i] = 1
		default:
			op = "encode+decode"
			enc, err := aggs[i].AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, refs[i].encode()) {
				t.Fatalf("step %d: encoded bytes differ from the dense encoding", step)
			}
			if aggs[i], err = UnmarshalAggregator(enc); err != nil {
				t.Fatal(err)
			}
		}
		checkQueries(t, fmt.Sprintf("step %d: %s", step, op), aggs[i], refs[i])
	}
	for i := range aggs {
		enc, _ := aggs[i].AppendBinary(nil)
		if !bytes.Equal(enc, refs[i].encode()) {
			t.Fatalf("final encoding of aggregator %d differs from the dense encoding", i)
		}
	}
}

// slotSchedule is the slotSteps-step random script of one seed, in
// runSlotScript's encoding.
func slotSchedule(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var script []byte
	span := []int{slotHosts, slotHosts, slotHosts}
	for step := 0; step < slotSteps; step++ {
		i, k := rng.Intn(slotPool), rng.Intn(20)
		script = append(script, byte(k*slotPool+i))
		switch {
		case k < 12:
			c := rng.Intn(60)
			script = append(script, byte(c))
			for ; c >= 0; c-- {
				m := rng.Intn(len(slotMethods))
				script = append(script, byte(m), byte(rng.Intn(span[i])), byte(rng.Intn(slotHosts-1)))
				for c := 0; c < 1+m/2; c++ {
					lost := byte(1)
					if rng.Intn(4) == 0 {
						lost = 0
					}
					script = append(script, lost)
					script = binary.LittleEndian.AppendUint16(script, uint16(rng.Intn(300)))
				}
				dt := binary.LittleEndian.AppendUint64(nil, uint64(rng.Int63n(slotMaxClockStep)))
				script = append(script, dt[:5]...)
			}
		case k < 14:
		case k < 16:
			script = append(script, byte(rng.Intn(slotPool-1)))
		case k < 18:
			r := rng.Intn(span[i])
			span[i] = 1 + r
			script = append(script, byte(r))
		}
	}
	return script
}

// TestSlotAggregatorMatchesDenseReference runs four seeds' random
// schedules through runSlotScript.
func TestSlotAggregatorMatchesDenseReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) { runSlotScript(t, slotSchedule(seed)) })
	}
}

// FuzzSlotAggregatorMatchesDenseReference holds the slot aggregator to
// the dense model on any script, seeded with the four schedules of
// TestSlotAggregatorMatchesDenseReference.
func FuzzSlotAggregatorMatchesDenseReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(slotSchedule(seed))
	}
	f.Fuzz(runSlotScript)
}

// TestSlotAggregatorGrowsPastInitialSlab takes one aggregator whose methods ×
// hosts² spans several record chunks through a cell that crosses chunk
// boundaries, a smaller cell in the recycled chunks, and a larger one
// past the high-water mark, holding each to the dense model's queries
// and encoding. Growth adds chunks and never moves a record; refilling
// after Reset allocates nothing; a paper-size aggregator is one exact
// chunk.
func TestSlotAggregatorGrowsPastInitialSlab(t *testing.T) {
	methods := slotMethods
	const n = 80
	var obs []Observation
	for m := range methods {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src != dst {
					obs = append(obs, Observation{Method: m, Src: src, Dst: dst, Copies: 1,
						Lost: [2]bool{(src+dst+m)%5 == 0}, Lat: [2]time.Duration{time.Duration(src+dst+1) * time.Millisecond}})
				}
			}
		}
	}
	if len(obs) < 4*recChunk {
		t.Fatalf("%d observed slots span under four chunks of %d; raise n", len(obs), recChunk)
	}
	rand.New(rand.NewSource(5)).Shuffle(len(obs), func(i, j int) { obs[i], obs[j] = obs[j], obs[i] })
	for i := range obs {
		obs[i].Time = int64(i) * int64(time.Second)
	}
	a := NewAggregator(methods, n)
	d := newDenseAgg(methods, n)
	fill := func(k int) {
		a.Reset()
		for i := range obs[:k] {
			a.Observe(obs[i])
		}
	}
	first := a.rec(1)
	chunks := 1
	// Every observation is a distinct (method, path), so a cell of k
	// observations holds k records and the sentinel.
	for _, k := range []int{2*recChunk + recChunk/2, recChunk / 4, len(obs)} {
		fill(k)
		d.reset()
		for _, o := range obs[:k] {
			d.observe(o)
		}
		chunks = max(chunks, (k+recChunk)/recChunk)
		if len(a.stats) != chunks || len(a.wins) != chunks {
			t.Fatalf("a cell of %d records leaves %d stats and %d wins chunks, want the high-water %d", k, len(a.stats), len(a.wins), chunks)
		}
		if last := len(a.stats[chunks-1]); (chunks-1)*recChunk+last > len(methods)*n*n+1 {
			t.Fatalf("%d chunks, the last of %d records, hold more than the sentinel and one record per (method, path)", chunks, last)
		}
		if a.rec(1) != first {
			t.Fatalf("record 1 moved while the slabs held %d records", k)
		}
		checkQueries(t, "chunked", a, d)
		enc, err := a.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, d.encode()) {
			t.Fatalf("encoding of a %d-record cell differs from the dense encoding", k)
		}
	}
	if allocs := testing.AllocsPerRun(2, func() { fill(len(obs)) }); allocs != 0 {
		t.Fatalf("refilling a grown aggregator after Reset allocates %.0f times", allocs)
	}

	const paper = 9
	small := NewAggregator(methods, paper)
	for m := range methods {
		for pi := 0; pi < paper*paper; pi++ {
			if pi/paper != pi%paper {
				small.Observe(Observation{Method: m, Src: pi / paper, Dst: pi % paper, Copies: 1})
			}
		}
	}
	if want := len(methods)*paper*paper + 1; len(small.stats) != 1 || len(small.stats[0]) != want || len(small.wins[0]) != want {
		t.Fatalf("paper-size aggregator holds %d chunks, the first of %d records; want one of exactly %d",
			len(small.stats), len(small.stats[0]), want)
	}
}
