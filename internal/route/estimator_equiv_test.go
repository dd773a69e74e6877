package route

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// boolRing is the loss window as it was before it became a bitset: one
// bool per probe and int counters. It is kept as the reference the
// record's packed ring is held to.
type boolRing struct {
	ring                 []bool
	next, filled, losses int
}

func (w *boolRing) record(lost bool) {
	if w.filled == len(w.ring) {
		if w.ring[w.next] {
			w.losses--
		}
	} else {
		w.filled++
	}
	w.ring[w.next] = lost
	if lost {
		w.losses++
	}
	if w.next++; w.next == len(w.ring) {
		w.next = 0
	}
}

func (w *boolRing) rate() float64 {
	if w.filled == 0 {
		return 0
	}
	return float64(w.losses) / float64(w.filled)
}

// latencyEWMA is the standalone latency average LinkEstimate's bare
// float is held to: an exponentially weighted moving average of
// one-way latency samples.
type latencyEWMA struct {
	alpha float64
	value float64 // nanoseconds
	valid bool
}

func (e *latencyEWMA) record(d time.Duration) {
	if !e.valid {
		e.value = float64(d)
		e.valid = true
		return
	}
	e.value += e.alpha * (float64(d) - e.value)
}

func (e *latencyEWMA) latency() time.Duration { return time.Duration(e.value) }

func (e *latencyEWMA) reset() { e.value, e.valid = 0, false }

// oneLink is link 0→1 of a two-node selector: one record, its spill
// words at slot 1 of the selector's slab, and the selector's window,
// driven through Selector.Record and Selector.Reset as a campaign drives
// every link. It stands in for the standalone loss window the record
// replaced.
type oneLink struct{ sel *Selector }

// newOneLink makes a one-link selector whose window holds size probes
// (<= 0 selects DefaultLossWindow; past MaxLossWindow it panics) and
// carves it, so the record is readable before its first outcome.
func newOneLink(size int) oneLink {
	sel := NewSelectorWindow(2, size)
	sel.writeSlot(0, 1)
	return oneLink{sel}
}

func (l oneLink) rec() *LinkEstimate { return &l.sel.est[l.sel.slot(0, 1)] }

// Record adds one probe outcome, delivered ones at 10 ms.
func (l oneLink) Record(lost bool) { l.sel.Record(0, 1, lost, 10*time.Millisecond) }

func (l oneLink) Rate() float64 { return l.rec().LossRate(l.sel.window) }

func (l oneLink) filled() int { return l.rec().filled(l.sel.window) }

func (l oneLink) Reset() { l.sel.Reset(l.sel.window) }

// words returns the link's ring words: the record's inline ones, then
// its spill words.
func (l oneLink) words() []uint64 {
	sw, slot := l.sel.spillWords, l.sel.slot(0, 1)
	return append(l.rec().ring[:], l.sel.spill[slot*sw:(slot+1)*sw]...)
}

// tailSet returns the first ring word holding a bit at or past the
// window, and its index, or -1 when every such bit is zero. It reads
// only the words from the window's last one on.
func (l oneLink) tailSet() (int, uint64) {
	size, words := l.sel.window, l.words()
	for i := size / 64; i < len(words); i++ {
		w := words[i]
		if i == size/64 {
			w >>= size % 64
		}
		if w != 0 {
			return i, words[i]
		}
	}
	return -1, 0
}

// TestLossWindowMatchesBoolRing: a link's bitset ring reports the rate
// and sample count of the bool ring after every Record — on both sides of
// a word boundary and of the record's inline outcomes, through more than
// three wrap-arounds, and again after a Reset — and never sets a ring
// bit at or past its size.
func TestLossWindowMatchesBoolRing(t *testing.T) {
	for _, size := range []int{1, 25, 63, 64, 65, 100, 128, 400} {
		w := newOneLink(size)
		if want := max(2, (size+63)/64); len(w.words()) != want {
			t.Fatalf("window %d: ring of %d words, want %d", size, len(w.words()), want)
		}
		rng := rand.New(rand.NewSource(int64(size)))
		for pass := 0; pass < 2; pass++ {
			ref := &boolRing{ring: make([]bool, size)}
			// Loss comes in bursts, so whole words fill and drain.
			lossy := false
			for i := 0; i < 4*size+7; i++ {
				if rng.Intn(16) == 0 {
					lossy = !lossy
				}
				lost := rng.Float64() < 0.15
				if lossy {
					lost = rng.Float64() < 0.9
				}
				w.Record(lost)
				ref.record(lost)
				if w.Rate() != ref.rate() || w.filled() != ref.filled {
					t.Fatalf("window %d pass %d probe %d: rate %v over %d samples, the bool ring has %v over %d",
						size, pass, i, w.Rate(), w.filled(), ref.rate(), ref.filled)
				}
			}
			words := w.words()
			for i, lost := range ref.ring {
				if got := words[i/64]>>(i%64)&1 == 1; got != lost {
					t.Fatalf("window %d pass %d: ring bit %d is %v, the bool ring has %v", size, pass, i, got, lost)
				}
			}
			if i, word := w.tailSet(); i >= 0 {
				t.Fatalf("window %d pass %d: bits past the window are set in word %d: %#x", size, pass, i, word)
			}
			w.Reset()
			if w.Rate() != 0 || w.filled() != 0 {
				t.Fatalf("window %d: Reset left rate %v over %d samples", size, w.Rate(), w.filled())
			}
			for _, word := range w.words() {
				if word != 0 {
					t.Fatalf("window %d: Reset left ring word %#x", size, word)
				}
			}
		}
	}
}

// FuzzLossWindowMatchesBoolRing runs an arbitrary script of Record and
// Reset on a window of arbitrary size and demands, after every step,
// the bool ring's rate and sample count and no ring bit past the
// window. The first two bytes pick the size (1 + v mod MaxLossWindow,
// little-endian); each later byte is a step: 0xff resets, any other b
// records outcome b&1, b>>1 + 1 times. TestLossWindowMatchesBoolRing's
// sizes seed the corpus with its bursty outcomes, a Reset, and more.
func FuzzLossWindowMatchesBoolRing(f *testing.F) {
	for _, size := range []int{1, 25, 63, 64, 65, 100, 128, 400} {
		script := []byte{byte(size - 1), byte((size - 1) >> 8)}
		rng := rand.New(rand.NewSource(int64(size)))
		lossy := false
		for i := 0; i < 4*size+7; i++ {
			if rng.Intn(16) == 0 {
				lossy = !lossy
			}
			lost := rng.Float64() < 0.15
			if lossy {
				lost = rng.Float64() < 0.9
			}
			var op byte // one record of outcome op&1
			if lost {
				op = 1
			}
			script = append(script, op)
		}
		f.Add(append(script, 0xff, 0x21, 0x40, 0xfe))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		size := 1 + (int(script[0])|int(script[1])<<8)%MaxLossWindow
		w, ref := newOneLink(size), &boolRing{ring: make([]bool, size)}
		check := func(step int) {
			if w.Rate() != ref.rate() || w.filled() != ref.filled {
				t.Fatalf("window %d step %d: rate %v over %d samples, the bool ring has %v over %d",
					size, step, w.Rate(), w.filled(), ref.rate(), ref.filled)
			}
			if i, word := w.tailSet(); i >= 0 {
				t.Fatalf("window %d step %d: bits past the window are set in word %d: %#x", size, step, i, word)
			}
		}
		for step, op := range script[2:] {
			if op == 0xff {
				w.Reset()
				ref = &boolRing{ring: make([]bool, size)}
				check(step)
				continue
			}
			for k := 0; k <= int(op>>1); k++ {
				w.Record(op&1 == 1)
				ref.record(op&1 == 1)
				check(step)
			}
		}
	})
}

// TestLossWindowAtMaximum: the largest window the 16-bit cursor allows
// fills, wraps and counts every probe of a fully lost window.
func TestLossWindowAtMaximum(t *testing.T) {
	w := newOneLink(MaxLossWindow)
	for i := 0; i < MaxLossWindow+10; i++ {
		w.Record(true)
	}
	if w.filled() != MaxLossWindow || w.Rate() != 1 {
		t.Fatalf("full window: rate %v over %d samples, want 1 over %d", w.Rate(), w.filled(), MaxLossWindow)
	}
	for i := 0; i < MaxLossWindow; i++ {
		w.Record(false)
	}
	if w.filled() != MaxLossWindow || w.Rate() != 0 {
		t.Fatalf("turned-over window: rate %v over %d samples, want 0 over %d", w.Rate(), w.filled(), MaxLossWindow)
	}
}

// TestValidateLossWindow: the route package's three ways in refuse a
// window the cursor cannot index, by name, and keep "zero or negative is
// the default".
func TestValidateLossWindow(t *testing.T) {
	for _, window := range []int{-1, 0, 1, DefaultLossWindow, MaxLossWindow} {
		if err := ValidateLossWindow(window); err != nil {
			t.Errorf("ValidateLossWindow(%d) = %v", window, err)
		}
	}
	sel := NewSelectorWindow(4, 0)
	for name, build := range map[string]func(window int){
		"newOneLink":        func(window int) { newOneLink(window) },
		"NewSelectorWindow": func(window int) { NewSelectorWindow(4, window) },
		"Selector.Reset":    func(window int) { sel.Reset(window) },
	} {
		for _, window := range []int{MaxLossWindow + 1, 2_000_000_000, math.MaxInt} {
			if err := ValidateLossWindow(window); err == nil {
				t.Errorf("ValidateLossWindow(%d) accepted", window)
			}
			func() {
				defer func() {
					err, _ := recover().(error)
					if err == nil || !strings.Contains(err.Error(), fmt.Sprint(window)) {
						t.Errorf("%s(%d): panic %v does not name the window", name, window, err)
					}
				}()
				build(window)
			}()
		}
		build(MaxLossWindow)
		build(-3)
	}
	if sel.window != DefaultLossWindow {
		t.Errorf("Reset(-3) left window %d, want the default", sel.window)
	}
}

// TestDeadDetectorSaturates: the 16-bit consecutive-loss counter stops at
// its maximum instead of wrapping, so a link that has lost 70 000 probes
// in a row is still dead — under the default threshold and under the
// largest one the counter can reach — and the first delivery revives it.
func TestDeadDetectorSaturates(t *testing.T) {
	for _, thr := range []uint16{1, DefaultDeadThreshold, 1000, math.MaxUint16} {
		var le LinkEstimate
		want := int(thr)
		for i := 1; i <= 70_000; i++ {
			le.Record(true, 0, DefaultLossWindow, nil)
			if dead := le.Dead(thr); dead != (i >= want) {
				t.Fatalf("threshold %d: Dead() = %v after %d consecutive losses", thr, dead, i)
			}
		}
		if le.consecutiveLosses != math.MaxUint16 {
			t.Fatalf("threshold %d: counter at %d after 70000 losses, want saturated", thr, le.consecutiveLosses)
		}
		le.Record(false, 10*time.Millisecond, DefaultLossWindow, nil)
		if le.Dead(thr) {
			t.Fatalf("threshold %d: still dead after a delivery", thr)
		}
		for i := 1; i < want && i < 10; i++ {
			le.Record(true, 0, DefaultLossWindow, nil)
			if le.Dead(thr) {
				t.Fatalf("threshold %d: dead again after only %d losses", thr, i)
			}
		}
	}
}

// TestLinkEstimateMatchesEWMA: the estimate's bare-float latency average
// is the standalone latencyEWMA at the default gain, bit for bit, with
// losses interleaved.
func TestLinkEstimateMatchesEWMA(t *testing.T) {
	var le LinkEstimate
	ref := &latencyEWMA{alpha: DefaultEWMAAlpha}
	rng := rand.New(rand.NewSource(5))
	const fallback = time.Second
	for i := 0; i < 2000; i++ {
		switch rng.Intn(8) {
		case 0:
			le.Record(true, 0, DefaultLossWindow, nil)
		default:
			lat := time.Duration(rng.Int63n(int64(300 * time.Millisecond)))
			le.Record(false, lat, DefaultLossWindow, nil)
			ref.record(lat)
		}
		want := fallback
		if ref.valid {
			want = ref.latency()
		}
		if got := le.LatencyEstimate(fallback); got != want {
			t.Fatalf("step %d: estimate %v, standalone EWMA %v", i, got, want)
		}
	}
}

// A link schedule for FuzzLinkEstimateMatchesReference is a byte string:
// two bytes picking the window, 1 + v mod linkMaxWindow (little-endian),
// then one step per byte. linkReset resets the selector at the same
// window; linkRecarve, followed by two window bytes, resets it to a
// different window, so the next record re-carves the spill slab; any
// other byte b records one probe on link b>>7 — 0→1 or 2→1 of a
// three-node mesh, slots whose spill words sit apart — lost when b&1,
// else delivered at 3 ms · (b>>1 & 63).
const (
	linkReset     = 0xff
	linkRecarve   = 0xfe
	linkMaxWindow = 300
)

// linkWindowBytes encodes window for a schedule's header or a re-carve.
func linkWindowBytes(window int) []byte { return []byte{byte(window - 1), byte((window - 1) >> 8)} }

// linkSeeds are schedules at windows on both sides of a ring word and of
// the record's inline outcomes — 127, 128, 129 and 192 always among them
// — each a bursty run of about three windows, a Reset midway and a
// re-carve across the inline boundary three quarters of the way.
func linkSeeds() [][]byte {
	var seeds [][]byte
	for _, window := range []int{1, 2, 63, 64, 65, 100, 127, 128, 129, 191, 192, 193, 256, linkMaxWindow} {
		rng := rand.New(rand.NewSource(int64(window)))
		script := linkWindowBytes(window)
		steps := 3*window + 40
		lossy := false
		for i := 0; i < steps; i++ {
			switch i {
			case steps / 2:
				script = append(script, linkReset)
			case 3 * steps / 4:
				other := 129
				if window > inlineBits {
					other = 100
				}
				script = append(append(script, linkRecarve), linkWindowBytes(other)...)
			}
			if rng.Intn(16) == 0 {
				lossy = !lossy
			}
			b := byte(rng.Intn(126)) // with the link bit, below linkRecarve
			if lossy && rng.Intn(8) > 0 {
				b |= 1
			}
			script = append(script, b|byte(rng.Intn(2))<<7)
		}
		seeds = append(seeds, script)
	}
	return seeds
}

// linkRef is a link as the record's plain twin sees it: a bool ring, a
// float EWMA and an int consecutive-loss count.
type linkRef struct {
	ring     boolRing
	ewma     latencyEWMA
	lossesIn int
}

func newLinkRef(window int) *linkRef {
	return &linkRef{ring: boolRing{ring: make([]bool, window)}, ewma: latencyEWMA{alpha: DefaultEWMAAlpha}}
}

func (r *linkRef) record(lost bool, lat time.Duration) {
	r.ring.record(lost)
	if lost {
		r.lossesIn++
		return
	}
	r.lossesIn = 0
	r.ewma.record(lat)
}

// FuzzLinkEstimateMatchesReference holds two links' records, driven
// through Selector.Record, Reset and re-carves at windows 1–300, to the
// plain twin after every step: LossRate, LatencyEstimate and Dead. Past
// 128 probes a window's outcomes spill out of the record into the
// selector's slab; the twin has no such boundary. linkSeeds seed the
// corpus.
func FuzzLinkEstimateMatchesReference(f *testing.F) {
	for _, c := range linkSeeds() {
		f.Add(c)
	}
	links := [2][2]int{{0, 1}, {2, 1}}
	const fallback = 250 * time.Millisecond
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		window := 1 + (int(script[0])|int(script[1])<<8)%linkMaxWindow
		sel := NewSelectorWindow(3, window)
		sel.setFallbackLatency(fallback)
		var refs [2]*linkRef
		start := func(w int) {
			window = w
			sel.Reset(window)
			sel.setFallbackLatency(fallback)
			refs = [2]*linkRef{newLinkRef(window), newLinkRef(window)}
		}
		start(window)
		check := func(step int) {
			for i, l := range links {
				le, ref := sel.link(l[0], l[1]), refs[i]
				wantLat := fallback
				if ref.ewma.valid {
					wantLat = ref.ewma.latency()
				}
				if got, want := le.LossRate(sel.window), ref.ring.rate(); got != want {
					t.Fatalf("window %d step %d link %d→%d: loss rate %v, the bool ring's %v", window, step, l[0], l[1], got, want)
				}
				if got := le.LatencyEstimate(fallback); got != wantLat {
					t.Fatalf("window %d step %d link %d→%d: latency %v, the EWMA's %v", window, step, l[0], l[1], got, wantLat)
				}
				if got, want := le.Dead(DefaultDeadThreshold), ref.lossesIn >= DefaultDeadThreshold; got != want {
					t.Fatalf("window %d step %d link %d→%d: dead %v after %d consecutive losses", window, step, l[0], l[1], got, ref.lossesIn)
				}
			}
		}
		for i := 2; i < len(script); i++ {
			switch op := script[i]; {
			case op == linkReset:
				start(window)
			case op == linkRecarve:
				if i+2 >= len(script) {
					return
				}
				w := 1 + (int(script[i+1])|int(script[i+2])<<8)%linkMaxWindow
				if w == window {
					w = 1 + w%linkMaxWindow
				}
				start(w)
				i += 2
			default:
				l, lost := links[op>>7], op&1 != 0
				lat := 3 * time.Millisecond * time.Duration(op>>1&63)
				sel.Record(l[0], l[1], lost, lat)
				refs[op>>7].record(lost, lat)
			}
			check(i)
		}
	})
}
