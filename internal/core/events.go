package core

import (
	"math/bits"

	"repro/internal/netsim"
)

// eventKind discriminates campaign events.
type eventKind uint8

const (
	// evRONProbe is a routing probe for one ordered pair (§3.1).
	evRONProbe eventKind = iota
	// evRONFollowUp is one of the up-to-four 1s-spaced probes sent
	// after a routing-probe loss.
	evRONFollowUp
	// evTableRefresh recomputes routing tables from current estimates.
	evTableRefresh
	// evMeasure is one §4.1 measurement probe from a node.
	evMeasure
	// evWorkloadFrame is one application frame of a workload stream
	// (a carries the stream index).
	evWorkloadFrame
	// evScenario is one scripted-failure firing: a fault action or a
	// recovery probe, discriminated by k (a carries the action or watch
	// index).
	evScenario
)

// event is one scheduled campaign action. a/b carry kind-specific host
// indices; k counts follow-up attempts.
type event struct {
	t    netsim.Time
	seq  uint64 // insertion order; breaks time ties deterministically
	kind eventKind
	a, b int32
	k    uint8
}

// less orders events by (t, seq) — the total order the campaign pops in.
func (e *event) less(o *event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// Calendar geometry. The campaign's event population is a few hundred
// strictly periodic streams — per-pair routing probes and the table
// refresh every ProbeInterval (15 s), measurement probes every ~1 s per
// node, follow-ups 1 s apart — so a calendar queue with a wheel wide
// enough to cover the longest recurrence turns every push and pop into
// O(1) bucket work. Width is a power of two of nanoseconds (2^26 ns ≈
// 67 ms) so bucket mapping is a shift+mask; 512 buckets give a horizon
// of 2^35 ns ≈ 34.4 s, comfortably past the 15 s default interval,
// while keeping the wheel's working set small enough to stay cached (a
// campaign's ~300 live events land ~1-3 per occupied bucket). Events
// beyond the horizon (sparse: only extreme -probeinterval sweeps
// produce them) fall back to a binary heap.
const (
	bucketShift   = 26
	bucketCount   = 512 // must be a power of two
	bucketMask    = bucketCount - 1
	bucketWidth   = netsim.Time(1) << bucketShift
	wheelHorizon  = netsim.Time(bucketCount) << bucketShift
	occupancyLen  = bucketCount / 64
	occupancyMask = 63
)

// eventQueue is a bucketed calendar queue over virtual time with a
// binary-heap overflow for events beyond the wheel horizon. It pops in
// exactly the (t, seq) order of a global min-heap — the campaign's
// outputs are bit-for-bit independent of the queue implementation — but
// both push and pop are O(1) for the periodic event population instead
// of O(log n), and steady-state operation allocates nothing (bucket
// slices retain their capacity across reuse).
//
// Two invariants make the fast path correct:
//
//  1. Events are only pushed at or after the time of the event being
//     processed, and window advancement stops at the first occupied
//     bucket, so every bucketed event's time lies within one horizon of
//     windowStart. Buckets therefore map one-to-one onto windows: all
//     events in a bucket belong to the same bucketWidth window, and the
//     minimum of the current bucket is the global bucketed minimum.
//  2. Overflow events are consulted by peeking the heap top whenever
//     the wheel reaches the top's window, so they interleave with
//     bucketed events in exact (t, seq) order without ever migrating.
//
// The zero value is ready to use.
type eventQueue struct {
	buckets [][]event
	// occupied is a bitmap over buckets; advancing the window skips
	// empty stretches 64 buckets per word instead of one at a time
	// (this matters when the queue drains at campaign end and the
	// remaining events are 15 s apart).
	occupied    []uint64
	windowStart netsim.Time // start of the current bucket's window
	cur         int         // bucket index of the current window
	// curIdx is the consumption cursor into buckets[cur]: entries
	// before it are already popped, entries from it on are sorted by
	// (t, seq). The bucket is sorted once when the window arrives
	// (sortCurrent), after which each pop is a cursor advance rather
	// than a min-scan plus swap-remove.
	curIdx   int
	count    int
	overflow []event // min-heap on (t, seq) for t ≥ windowStart+horizon
	seq      uint64
}

// push schedules an event, assigning its sequence number.
func (q *eventQueue) push(e event) {
	if q.buckets == nil {
		q.init()
	}
	e.seq = q.seq
	q.seq++
	q.count++
	if e.t >= q.windowStart+wheelHorizon {
		q.heapPush(e)
		return
	}
	b := q.cur
	if e.t >= q.windowStart {
		b = int(e.t>>bucketShift) & bucketMask
	}
	// An e.t before windowStart cannot happen for campaign schedules
	// (events are pushed at or after the popped event's time); routing
	// such a push to the current bucket keeps ordering correct anyway,
	// via the sorted insert below.
	if len(q.buckets[b]) == 0 {
		q.occupied[b>>6] |= 1 << (uint(b) & occupancyMask)
	}
	q.buckets[b] = append(q.buckets[b], e)
	if b == q.cur {
		// The current bucket's tail is kept sorted while it is being
		// consumed; bubble the new event into place. Rare: schedules
		// whose gaps exceed the bucket width (all defaults do) never
		// push into the window being drained, except before the first
		// pop when cur is still the seed bucket.
		s := q.buckets[b]
		for i := len(s) - 1; i > q.curIdx && s[i].less(&s[i-1]); i-- {
			s[i], s[i-1] = s[i-1], s[i]
		}
	}
}

// bucketSeedCap is each bucket's pre-carved slab capacity; buckets
// needing more fall back to individual append growth. 8 absorbs most
// of the follow-up clusters a global congestion episode synchronizes
// into one window (many pairs lose probes at once, all rescheduling
// +1 s), so campaigns with fresh seeds rarely grow a reused queue's
// buckets, while keeping the per-arena slab at 128 KB (16 measured no
// fewer steady-state growths but doubled the slab's zeroing and cache
// cost, visible at 4 workers on one core).
const bucketSeedCap = 8

// init lays every bucket out in one slab (len 0, cap bucketSeedCap,
// three-index sliced so an overgrown bucket reallocates on its own
// instead of stomping its neighbor) — one allocation instead of a few
// thousand append-growth steps per campaign.
func (q *eventQueue) init() {
	q.buckets = make([][]event, bucketCount)
	slab := make([]event, bucketCount*bucketSeedCap)
	for i := range q.buckets {
		o := i * bucketSeedCap
		q.buckets[i] = slab[o : o : o+bucketSeedCap]
	}
	q.occupied = make([]uint64, occupancyLen)
}

// reset empties the queue back to its ready-to-use zero state, keeping
// every bucket's grown capacity (and the overflow heap's), so a reused
// queue serves its next campaign without reallocating. Behavior is
// indistinguishable from a fresh queue: all ordering state is derived
// from the fields reset here.
func (q *eventQueue) reset() {
	if q.buckets == nil {
		return // zero value, already ready
	}
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	clear(q.occupied)
	q.windowStart, q.cur, q.curIdx = 0, 0, 0
	q.count = 0
	q.overflow = q.overflow[:0]
	q.seq = 0
}

// pop removes and returns the earliest event. It must not be called on
// an empty queue.
func (q *eventQueue) pop() event {
	b := q.buckets[q.cur]
	if q.curIdx < len(b) {
		e := b[q.curIdx]
		if len(q.overflow) > 0 {
			// An overflow event whose window has arrived competes with
			// the bucket head on (t, seq).
			if top := &q.overflow[0]; top.t < q.windowStart+bucketWidth && top.less(&e) {
				return q.heapPop()
			}
		}
		q.curIdx++
		q.count--
		if q.curIdx == len(b) {
			q.buckets[q.cur] = b[:0]
			q.curIdx = 0
			q.occupied[q.cur>>6] &^= 1 << (uint(q.cur) & occupancyMask)
		}
		return e
	}
	return q.popSlow()
}

// popSlow advances the window to the next occupied bucket (or due
// overflow event), sorts the bucket it lands on, and pops from it.
func (q *eventQueue) popSlow() event {
	for {
		if len(q.overflow) > 0 && q.overflow[0].t < q.windowStart+bucketWidth {
			return q.heapPop()
		}
		q.advance()
		if b := q.buckets[q.cur]; len(b) > 0 {
			q.sortCurrent(b)
			return q.pop()
		}
	}
}

// sortCurrent insertion-sorts the just-arrived bucket by (t, seq);
// buckets hold one window's events (a handful), so the quadratic sort
// is the cheap choice.
func (q *eventQueue) sortCurrent(b []event) {
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && b[j].less(&b[j-1]); j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
	q.curIdx = 0
}

// advance moves the window forward to the next bucket that can hold the
// minimum: the nearest occupied bucket, capped by the overflow top's
// window so overflow events are never skipped past.
func (q *eventQueue) advance() {
	steps := q.nextOccupiedDelta()
	if len(q.overflow) > 0 {
		if d := int((q.overflow[0].t - q.windowStart) >> bucketShift); d < steps {
			steps = d
		}
	}
	if steps < 1 {
		steps = 1
	}
	q.cur = (q.cur + steps) & bucketMask
	q.windowStart += netsim.Time(steps) << bucketShift
}

// nextOccupiedDelta returns the distance (in buckets, ≥ 1) from cur to
// the next occupied bucket, or bucketCount if none is occupied.
func (q *eventQueue) nextOccupiedDelta() int {
	start := q.cur + 1
	for scanned := 0; scanned < bucketCount; {
		word := (start + scanned) >> 6
		bit := uint(start+scanned) & occupancyMask
		w := q.occupied[word&(occupancyLen-1)] >> bit
		if w != 0 {
			return start + scanned + bits.TrailingZeros64(w) - q.cur
		}
		scanned += 64 - int(bit)
	}
	return bucketCount
}

// len returns the number of pending events.
func (q *eventQueue) len() int { return q.count }

// peek reports the time and sequence number of the earliest pending
// event without removing it. It may advance the window machinery
// (cheap, removes nothing); ok is false on an empty queue.
func (q *eventQueue) peek() (t netsim.Time, seq uint64, ok bool) {
	if q.count == 0 {
		return 0, 0, false
	}
	for {
		b := q.buckets[q.cur]
		if q.curIdx < len(b) {
			e := &b[q.curIdx]
			if len(q.overflow) > 0 {
				if top := &q.overflow[0]; top.t < q.windowStart+bucketWidth && top.less(e) {
					return top.t, top.seq, true
				}
			}
			return e.t, e.seq, true
		}
		if len(q.overflow) > 0 && q.overflow[0].t < q.windowStart+bucketWidth {
			return q.overflow[0].t, q.overflow[0].seq, true
		}
		q.advance()
		if b := q.buckets[q.cur]; len(b) > 0 {
			q.sortCurrent(b)
		}
	}
}

// takeSeq consumes the next sequence number without pushing an event.
// The probe stream draws one per probe firing, in exactly the order the
// retired all-in-one-queue engine pushed probe reschedules, so exact
// time ties between stream probes and queued events resolve by plain
// (t, seq) comparison — identically to the old engine for every
// configuration, including probe intervals at or below the follow-up
// spacing and the measurement gap.
func (q *eventQueue) takeSeq() uint64 {
	s := q.seq
	q.seq++
	return s
}

// probeStream is the implicit schedule of the §3.1 routing probes: one
// phase-jittered slot per ordered pair, recurring at a fixed interval.
// Strict periodicity lets the campaign keep these — the bulk of its
// events — out of the event queue entirely: the sorted phase wheel is
// consumed with a cursor, and each era (interval) shifts every slot by
// the same offset.
type probeStream struct {
	phases []netsim.Time // sorted ascending within one era
	srcs   []int32       // parallel to phases
	dsts   []int32
	// seqs carries each slot's sequence number for its NEXT firing,
	// drawn from the shared eventQueue counter (takeSeq) at the
	// previous firing — exactly when the retired engine pushed the
	// probe's reschedule — so exact-time ties against queued events
	// compare like event-vs-event.
	seqs     []uint64
	cursor   int
	era      netsim.Time // time offset of the current era
	interval netsim.Time
	// perm and permNext are start's sort scratch, kept so a reused
	// stream sorts without allocating.
	perm, permNext []int32
}

// presize readies the slot arrays for n pairs in one allocation each
// (instead of log n append-growth steps) on the fresh path; reused
// streams with enough capacity keep their arrays.
func (p *probeStream) presize(n int) {
	if cap(p.phases) >= n {
		return
	}
	p.phases = make([]netsim.Time, 0, n)
	p.srcs = make([]int32, 0, n)
	p.dsts = make([]int32, 0, n)
	p.seqs = make([]uint64, 0, n)
}

// add registers one pair's phase during seeding (pre-start, unsorted),
// with the sequence number its first firing carries.
func (p *probeStream) add(phase netsim.Time, src, dst int32, seq uint64) {
	p.phases = append(p.phases, phase)
	p.srcs = append(p.srcs, src)
	p.dsts = append(p.dsts, dst)
	p.seqs = append(p.seqs, seq)
}

// reset empties the wheel, keeping the slot arrays' capacity, so a
// reused stream re-seeds without reallocating.
func (p *probeStream) reset() {
	p.phases = p.phases[:0]
	p.srcs = p.srcs[:0]
	p.dsts = p.dsts[:0]
	p.seqs = p.seqs[:0]
	p.cursor = 0
	p.era = 0
	p.interval = 0
}

// radixBits is the digit width of start's radix sort: 4096 counters fit
// L1 beside the scatter's working set, and a 15 s probe interval (34
// bits of nanoseconds) sorts in three passes.
const radixBits = 12

// start sorts the wheel by phase and begins era 0. Slots with equal
// phases fire in the order they were seeded, matching the retired
// queue's sequence tie-break. The sort is an LSD radix sort of a slot
// permutation — linear in the slot count, and stable because every
// counting pass is — which is then applied to the four arrays in place;
// phases are non-negative (a fraction of the interval), so their digits
// order them.
func (p *probeStream) start(interval netsim.Time) {
	p.interval = interval
	n := len(p.phases)
	if cap(p.perm) < n {
		p.perm = make([]int32, n)
		p.permNext = make([]int32, n)
	}
	perm, next := p.perm[:n], p.permNext[:n]
	var max netsim.Time
	for i, ph := range p.phases {
		perm[i] = int32(i)
		if ph > max {
			max = ph
		}
	}
	for shift := uint(0); max>>shift != 0; shift += radixBits {
		var pos [1 << radixBits]int32
		for _, ph := range p.phases {
			pos[(ph>>shift)&(1<<radixBits-1)]++
		}
		var sum int32
		for d, c := range pos {
			pos[d] = sum
			sum += c
		}
		for _, slot := range perm {
			d := (p.phases[slot] >> shift) & (1<<radixBits - 1)
			next[pos[d]] = slot
			pos[d]++
		}
		perm, next = next, perm
	}
	// perm[i] is the slot that belongs at i. Walk each cycle once,
	// pulling slots forward; a settled position is marked by pointing at
	// itself.
	for i := range perm {
		from := int(perm[i])
		if from == i {
			continue
		}
		phase, src, dst, seq := p.phases[i], p.srcs[i], p.dsts[i], p.seqs[i]
		at := i
		for from != i {
			p.phases[at], p.srcs[at], p.dsts[at], p.seqs[at] =
				p.phases[from], p.srcs[from], p.dsts[from], p.seqs[from]
			perm[at] = int32(at)
			at, from = from, int(perm[from])
		}
		p.phases[at], p.srcs[at], p.dsts[at], p.seqs[at] = phase, src, dst, seq
		perm[at] = int32(at)
	}
}

// peek returns the next probe's firing time and sequence number; ok is
// false for an empty stream (degenerate meshes only).
func (p *probeStream) peek() (netsim.Time, uint64, bool) {
	if len(p.phases) == 0 {
		return 0, 0, false
	}
	return p.era + p.phases[p.cursor], p.seqs[p.cursor], true
}

// pair returns the next probe's ordered pair.
func (p *probeStream) pair() (src, dst int32) {
	return p.srcs[p.cursor], p.dsts[p.cursor]
}

// advance moves past the current probe, storing the sequence number its
// next firing will carry, and wraps into the next era.
func (p *probeStream) advance(nextSeq uint64) {
	p.seqs[p.cursor] = nextSeq
	p.cursor++
	if p.cursor == len(p.phases) {
		p.cursor = 0
		p.era += p.interval
	}
}

// heapPush inserts into the overflow min-heap on (t, seq).
func (q *eventQueue) heapPush(e event) {
	q.overflow = append(q.overflow, e)
	i := len(q.overflow) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.overflow[i].less(&q.overflow[parent]) {
			break
		}
		q.overflow[i], q.overflow[parent] = q.overflow[parent], q.overflow[i]
		i = parent
	}
}

// heapPop removes the overflow minimum.
func (q *eventQueue) heapPop() event {
	top := q.overflow[0]
	last := len(q.overflow) - 1
	q.overflow[0] = q.overflow[last]
	q.overflow = q.overflow[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && q.overflow[l].less(&q.overflow[smallest]) {
			smallest = l
		}
		if r < last && q.overflow[r].less(&q.overflow[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.overflow[i], q.overflow[smallest] = q.overflow[smallest], q.overflow[i]
		i = smallest
	}
	q.count--
	return top
}
