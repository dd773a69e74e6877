package core

import (
	"repro/internal/netsim"
	"repro/internal/route"
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

// eventQueue is a binary min-heap of events on (t, seq), the total
// order the campaign pops in. The §3.1 routing probes — n(n−1) strictly
// periodic events, the bulk of a campaign — never enter it (they ride
// probeStream), so it holds only about one event per node: each node's
// next §4.1 measurement probe, the table refresh, pending loss
// follow-ups, workload frames and scenario firings.
//
// The zero value is ready to use.
type eventQueue struct {
	heap []event
	seq  uint64
}

// push schedules an event, assigning its sequence number.
func (q *eventQueue) push(e event) {
	e.seq = q.seq
	q.seq++
	i := len(q.heap)
	q.heap = append(q.heap, e)
	h := q.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// pop removes and returns the earliest event. It must not be called on
// an empty queue.
func (q *eventQueue) pop() event {
	h := q.heap
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	q.heap = h
	if len(h) == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(&h[c]) {
			c = r
		}
		if !h[c].less(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// reset empties the queue for a campaign over n nodes, keeping its
// capacity, so a reused queue serves its next campaign without
// reallocating. A queue too small for one pending measurement probe per
// node plus the table refresh is grown to that once, instead of by
// append doublings during the cell.
func (q *eventQueue) reset(n int) {
	if cap(q.heap) < n+1 {
		q.heap = make([]event, 0, n+1)
	}
	q.heap = q.heap[:0]
	q.seq = 0
}

// len returns the number of pending events.
func (q *eventQueue) len() int { return len(q.heap) }

// peek reports the time and sequence number of the earliest pending
// event without removing it; ok is false on an empty queue.
func (q *eventQueue) peek() (t netsim.Time, seq uint64, ok bool) {
	if len(q.heap) == 0 {
		return 0, 0, false
	}
	return q.heap[0].t, q.heap[0].seq, true
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
	pairs  []uint32      // parallel to phases: src<<pairBits | dst
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

// pairBits is the width of a node index in a packed slot pair: every
// index is below route.MaxMeshNodes, so src<<pairBits | dst is exact.
const pairBits = 14

// A node index must fit pairBits, and a packed pair 32 bits: either
// conversion is negative, and so fails to compile, if a bound moves
// past it.
const (
	_ = uint(1<<pairBits - route.MaxMeshNodes)
	_ = uint(32 - 2*pairBits)
)

// presize readies the slot arrays for n pairs in one allocation each
// (instead of log n append-growth steps) on the fresh path; reused
// streams with enough capacity keep their arrays.
func (p *probeStream) presize(n int) {
	if cap(p.phases) >= n {
		return
	}
	p.phases = make([]netsim.Time, 0, n)
	p.pairs = make([]uint32, 0, n)
	p.seqs = make([]uint64, 0, n)
}

// add registers one pair's phase during seeding (pre-start, unsorted),
// with the sequence number its first firing carries.
func (p *probeStream) add(phase netsim.Time, src, dst int32, seq uint64) {
	p.phases = append(p.phases, phase)
	p.pairs = append(p.pairs, uint32(src)<<pairBits|uint32(dst))
	p.seqs = append(p.seqs, seq)
}

// reset empties the wheel, keeping the slot arrays' capacity, so a
// reused stream re-seeds without reallocating.
func (p *probeStream) reset() {
	p.phases = p.phases[:0]
	p.pairs = p.pairs[:0]
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
// counting pass is — which is then applied to the three arrays in place;
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
		phase, pair, seq := p.phases[i], p.pairs[i], p.seqs[i]
		at := i
		for from != i {
			p.phases[at], p.pairs[at], p.seqs[at] = p.phases[from], p.pairs[from], p.seqs[from]
			perm[at] = int32(at)
			at, from = from, int(perm[from])
		}
		p.phases[at], p.pairs[at], p.seqs[at] = phase, pair, seq
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
	v := p.pairs[p.cursor]
	return int32(v >> pairBits), int32(v & (1<<pairBits - 1))
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
