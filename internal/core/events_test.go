package core

import (
	"encoding/binary"
	"sort"
	"testing"

	"repro/internal/netsim"
)

// refQueue is the reference implementation: a sorted-on-demand list
// ordered by (t, seq), the contract the event heap must match.
type refQueue struct {
	evs []event
	seq uint64
}

func (r *refQueue) push(e event) {
	e.seq = r.seq
	r.seq++
	r.evs = append(r.evs, e)
}

func (r *refQueue) pop() event {
	best := 0
	for i := 1; i < len(r.evs); i++ {
		if r.evs[i].less(&r.evs[best]) {
			best = i
		}
	}
	e := r.evs[best]
	r.evs = append(r.evs[:best], r.evs[best+1:]...)
	return e
}

// checkQueueScript runs a script of pushes and pops on the event heap
// and on refQueue and demands identical pops, then drains both. Like
// the event loop, a script pushes only at or after the time of the last
// pop. Each op byte's low two bits choose the operation:
//
//	0  pop (skipped on an empty queue)
//	1  push at the last pop's time: a same-timestamp tie
//	2  push up to 4.3 s later, to the nanosecond: the spread of the
//	   measurement probes and follow-ups
//	3  push up to 1100 s later, in 256 ns steps: far-future events
//	   that many nearer ones must overtake
//
// Ops 2 and 3 read a little-endian uint32 delay after the op byte; a
// truncated one ends the script.
func checkQueueScript(t *testing.T, script []byte) {
	var q eventQueue
	var ref refQueue
	now := netsim.Time(0)
	pops := 0
	pop := func() {
		if q.len() != len(ref.evs) {
			t.Fatalf("pop %d: len %d, reference %d", pops, q.len(), len(ref.evs))
		}
		got, want := q.pop(), ref.pop()
		if got != want {
			t.Fatalf("pop %d: %+v, reference %+v", pops, got, want)
		}
		now = got.t
		pops++
	}
	// Each op's index tags the event it pushes, so equal pops are the
	// same event.
	for i, tag := 0, int32(0); i < len(script); tag++ {
		op := script[i] & 3
		i++
		var delay netsim.Time
		switch op {
		case 0:
			if len(ref.evs) > 0 {
				pop()
			}
			continue
		case 2, 3:
			if i+4 > len(script) {
				return
			}
			delay = netsim.Time(binary.LittleEndian.Uint32(script[i:]))
			if op == 3 {
				delay <<= 8
			}
			i += 4
		}
		e := event{t: now + delay, a: tag}
		q.push(e)
		ref.push(e)
	}
	for len(ref.evs) > 0 {
		pop()
	}
	if q.len() != 0 {
		t.Fatalf("queue holds %d events after the reference drained", q.len())
	}
}

// referenceSchedule is an adversarial script for checkQueueScript —
// periodic streams like the campaign's, near-coincident times,
// identical timestamps (seq ties), and far-future events — recorded by
// driving refQueue alone.
func referenceSchedule(tb testing.TB) []byte {
	var ref refQueue
	var script []byte
	rng := netsim.NewSource(7)
	now := netsim.Time(0)
	push := func(e event) {
		var word [4]byte
		switch d := e.t - now; {
		case d == 0:
			script = append(script, 1)
		case d < 1<<32:
			binary.LittleEndian.PutUint32(word[:], uint32(d))
			script = append(append(script, 2), word[:]...)
		case d%256 == 0 && d < 1<<40:
			binary.LittleEndian.PutUint32(word[:], uint32(d>>8))
			script = append(append(script, 3), word[:]...)
		default:
			tb.Fatalf("delay %v has no script encoding", d)
		}
		ref.push(e)
	}

	// Campaign-like periodic seeds, including exact ties at t=0 and at
	// one shared timestamp.
	for i := 0; i < 40; i++ {
		push(event{t: netsim.Time(i%8) * netsim.Second, kind: evRONProbe, a: int32(i)})
	}
	// Far-future events, minutes past the periodic streams.
	for i := 0; i < 10; i++ {
		push(event{t: netsim.Time(100+i*50) * netsim.Second, kind: evMeasure, a: int32(i)})
	}
	for step := 0; len(ref.evs) > 0; step++ {
		script = append(script, 0)
		got := ref.pop()
		now = got.t
		// Reschedule some events the way the campaign does: at a fixed
		// interval, a 1 s follow-up, or a random sub-second gap —
		// stopping eventually so the queue drains.
		if step < 400 {
			switch got.kind {
			case evRONProbe:
				push(event{t: got.t + 15*netsim.Second, kind: evRONProbe, a: got.a})
				if rng.Float64() < 0.3 {
					push(event{t: got.t + netsim.Second, kind: evRONFollowUp, a: got.a, k: got.k + 1})
				}
			case evRONFollowUp:
				if got.k < 4 && rng.Float64() < 0.5 {
					push(event{t: got.t + netsim.Second, kind: evRONFollowUp, a: got.a, k: got.k + 1})
				}
			case evMeasure:
				gap := netsim.Time(rng.Uniform(0, 2e9))
				push(event{t: got.t + gap, kind: evMeasure, a: got.a})
			}
		}
	}
	return script
}

// TestEventQueueMatchesReference replays referenceSchedule on the
// event heap and the reference and demands identical pop sequences.
func TestEventQueueMatchesReference(t *testing.T) {
	checkQueueScript(t, referenceSchedule(t))
}

// FuzzEventQueueMatchesReference demands pop-for-pop equality with
// refQueue on arbitrary scripts; referenceSchedule seeds the corpus.
func FuzzEventQueueMatchesReference(f *testing.F) {
	f.Add(referenceSchedule(f))
	f.Add([]byte{1, 1, 0, 1, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		// refQueue pops by linear scan, so a script far longer than the
		// seed only slows the search.
		if len(script) > 4<<10 {
			t.Skip("script longer than 4 KiB")
		}
		checkQueueScript(t, script)
	})
}

// TestEventQueueTieOrder pins the (t, seq) contract directly: events at
// one timestamp pop in insertion order regardless of push interleaving.
func TestEventQueueTieOrder(t *testing.T) {
	var q eventQueue
	const at = 3 * netsim.Second
	for i := 0; i < 100; i++ {
		// Interleave two timestamps so ties are not trivially FIFO in
		// the backing storage.
		q.push(event{t: at, a: int32(i)})
		q.push(event{t: at + netsim.Second, a: int32(i)})
	}
	var gotFirst, gotSecond []int32
	for q.len() > 0 {
		e := q.pop()
		if e.t == at {
			gotFirst = append(gotFirst, e.a)
		} else {
			gotSecond = append(gotSecond, e.a)
		}
	}
	if len(gotSecond) != 100 || len(gotFirst) != 100 {
		t.Fatalf("lost events: %d + %d", len(gotFirst), len(gotSecond))
	}
	if !sort.SliceIsSorted(gotFirst, func(i, j int) bool { return gotFirst[i] < gotFirst[j] }) {
		t.Errorf("ties at t popped out of insertion order: %v", gotFirst)
	}
	// All of t's events must precede t+1s's — implied by construction
	// above (gotFirst/gotSecond split would interleave otherwise, and
	// pop order fills them sequentially).
	if !sort.SliceIsSorted(gotSecond, func(i, j int) bool { return gotSecond[i] < gotSecond[j] }) {
		t.Errorf("ties at t+1s popped out of insertion order: %v", gotSecond)
	}
}

// stableWheel is the reference for probeStream.start: sort.Stable over
// the three parallel slot arrays, the implementation the radix sort
// replaced.
type stableWheel struct{ p *probeStream }

func (w stableWheel) Len() int           { return len(w.p.phases) }
func (w stableWheel) Less(a, b int) bool { return w.p.phases[a] < w.p.phases[b] }
func (w stableWheel) Swap(a, b int) {
	p := w.p
	p.phases[a], p.phases[b] = p.phases[b], p.phases[a]
	p.pairs[a], p.pairs[b] = p.pairs[b], p.pairs[a]
	p.seqs[a], p.seqs[b] = p.seqs[b], p.seqs[a]
}

// A probe-wheel case is a byte string: six bytes of interval−1
// (little-endian, reduced mod 2⁴⁵, so intervals run 1 to 2⁴⁵), then one
// record per slot. A record's tag byte is odd for an exact tie — the
// phase of the earlier slot the next two bytes name, modulo the slots
// so far — or even for six bytes of phase, reduced mod the interval.
// Two bytes each of src and dst (14 bits) follow, then a byte b that
// advances the next slot's sequence number by 1 + b. A short record
// ends the case.
const maxWheelInterval = 1 << 45

func le48(b []byte) uint64 {
	return uint64(binary.LittleEndian.Uint16(b[4:]))<<32 | uint64(binary.LittleEndian.Uint32(b))
}

func append48(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint32(b, uint32(v)), uint16(v>>32))
}

// wheelCase decodes a case: the interval, then each slot as it is added.
func wheelCase(b []byte, add func(phase netsim.Time, src, dst int32, seq uint64)) (netsim.Time, bool) {
	if len(b) < 6 {
		return 0, false
	}
	interval := 1 + netsim.Time(le48(b)%maxWheelInterval)
	b = b[6:]
	var phases []netsim.Time
	seq := uint64(17)
	for len(b) > 0 {
		tag := b[0]
		var phase netsim.Time
		if tag&1 == 1 {
			if len(b) < 3+5 {
				break
			}
			if len(phases) > 0 {
				phase = phases[int(binary.LittleEndian.Uint16(b[1:]))%len(phases)]
			}
			b = b[3:]
		} else {
			if len(b) < 7+5 {
				break
			}
			phase = netsim.Time(le48(b[1:]) % uint64(interval))
			b = b[7:]
		}
		src := int32(binary.LittleEndian.Uint16(b) & (1<<14 - 1))
		dst := int32(binary.LittleEndian.Uint16(b[2:]) & (1<<14 - 1))
		phases = append(phases, phase)
		add(phase, src, dst, seq)
		seq += 1 + uint64(b[4])
		b = b[5:]
	}
	return interval, true
}

// wheelCases are TestProbeWheelMatchesStableSort's cases: n slots of
// random phases with a forced share of exact ties and of phases at the
// top of the range, over intervals whose phases need every radix pass
// a 15 s interval does and more.
func wheelCases() [][]byte {
	rng := netsim.NewSource(11)
	intervals := []netsim.Time{
		1, 3 * netsim.Millisecond, 15 * netsim.Second,
		1 << 33, 3 << 33, maxWheelInterval,
	}
	var cases [][]byte
	for _, n := range []int{0, 1, 2, 3, 1000} {
		for _, interval := range intervals {
			b := append48(nil, uint64(interval-1))
			for i := 0; i < n; i++ {
				phase := netsim.Time(rng.Float64() * float64(interval))
				switch rng.Intn(4) {
				case 0: // exact tie with an earlier slot
					if i > 0 {
						b = binary.LittleEndian.AppendUint16(append(b, 1), uint16(rng.Intn(i)))
						break
					}
					fallthrough
				default:
					if rng.Intn(3) == 0 { // the top of the range, above 2^33 for the long intervals
						phase = max(interval-1-netsim.Time(rng.Intn(3)), 0)
					}
					b = append48(append(b, 0), uint64(phase))
				}
				b = binary.LittleEndian.AppendUint16(b, uint16(rng.Intn(1<<14)))
				b = binary.LittleEndian.AppendUint16(b, uint16(rng.Intn(1<<14)))
				b = append(b, byte(rng.Intn(3)))
			}
			cases = append(cases, b)
		}
	}
	return cases
}

// checkWheelCase seeds got (reset first, so a reused stream's capacity
// carries over) and a fresh reference from a case, and demands the
// radix wheel equal the stable sort slot for slot, each slot's pair
// reading back as seeded.
func checkWheelCase(t testing.TB, got *probeStream, c []byte) {
	t.Helper()
	var want probeStream
	got.reset()
	seeded := map[uint64][2]int32{} // sequence numbers are distinct
	interval, ok := wheelCase(c, func(phase netsim.Time, src, dst int32, seq uint64) {
		got.add(phase, src, dst, seq)
		want.add(phase, src, dst, seq)
		seeded[seq] = [2]int32{src, dst}
	})
	if !ok {
		return
	}
	got.start(interval)
	want.interval = interval
	sort.Stable(stableWheel{&want})
	n := len(want.phases)
	if len(got.phases) != n || got.interval != interval {
		t.Fatalf("n=%d: stream holds %d slots, interval %d", n, len(got.phases), got.interval)
	}
	for i := 0; i < n; i++ {
		if got.phases[i] != want.phases[i] || got.pairs[i] != want.pairs[i] || got.seqs[i] != want.seqs[i] {
			t.Fatalf("n=%d interval=%d slot %d: got (%d,%#x,%d) want (%d,%#x,%d)",
				n, interval, i,
				got.phases[i], got.pairs[i], got.seqs[i],
				want.phases[i], want.pairs[i], want.seqs[i])
		}
		got.cursor = i
		if src, dst := got.pair(); [2]int32{src, dst} != seeded[got.seqs[i]] {
			t.Fatalf("n=%d slot %d: pair reads %d→%d, seeded as %v", n, i, src, dst, seeded[got.seqs[i]])
		}
	}
	got.cursor = 0
}

// TestProbeWheelMatchesStableSort runs wheelCases on one reused stream,
// like an arena's. A second start on the reused stream must not
// allocate.
func TestProbeWheelMatchesStableSort(t *testing.T) {
	var got probeStream
	for _, c := range wheelCases() {
		checkWheelCase(t, &got, c)
	}
	// got is sorted and at its high-water size: a re-seed and re-sort on
	// the warm stream allocates nothing.
	phases := append([]netsim.Time(nil), got.phases...)
	allocs := testing.AllocsPerRun(5, func() {
		got.reset()
		for i := len(phases) - 1; i >= 0; i-- {
			got.add(phases[i], int32(i), int32(i), uint64(len(phases)-i))
		}
		got.start(maxWheelInterval)
	})
	if allocs != 0 {
		t.Fatalf("start on a reused stream allocated %.0f times", allocs)
	}
}

// FuzzProbeWheelMatchesStableSort demands slot-for-slot equality with
// the stable sort on arbitrary cases (see wheelCase), on one stream
// reused across inputs; wheelCases seed the corpus.
func FuzzProbeWheelMatchesStableSort(f *testing.F) {
	for _, c := range wheelCases() {
		f.Add(c)
	}
	var got probeStream
	f.Fuzz(func(t *testing.T, c []byte) {
		if len(c) > 64<<10 {
			t.Skip("case longer than 64 KiB")
		}
		checkWheelCase(t, &got, c)
	})
}

// BenchmarkProbeWheelStart measures seeding's sort at the slot count of
// an n=512 full mesh, on a warm stream (an arena's second cell). It
// lives here, not in the root harness, because the wheel is unexported.
func BenchmarkProbeWheelStart(b *testing.B) {
	const n = 512
	interval := 15 * netsim.Second
	rng := netsim.NewSource(1)
	phases := make([]netsim.Time, n*(n-1))
	for i := range phases {
		phases[i] = netsim.Time(rng.Float64() * float64(interval))
	}
	var p probeStream
	p.presize(len(phases))
	seed := func() {
		p.reset()
		for i, ph := range phases {
			p.add(ph, int32(i/n), int32(i%n), uint64(i))
		}
	}
	seed()
	p.start(interval)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		seed()
		b.StartTimer()
		p.start(interval)
	}
}
