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
// bool per probe and int counters. It is kept as the reference the packed
// window is held to.
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

// TestLossWindowMatchesBoolRing: the bitset window reports the rate and
// sample count of the bool ring after every Record — on both sides of a
// word boundary, through more than three wrap-arounds, and again after a
// Reset — and never sets a ring bit at or past its size.
func TestLossWindowMatchesBoolRing(t *testing.T) {
	for _, size := range []int{1, 25, 63, 64, 65, 100, 128, 400} {
		w := newLossWindow(size)
		if len(w.ring) != (size+63)/64 {
			t.Fatalf("window %d: ring of %d words, want %d", size, len(w.ring), (size+63)/64)
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
				if w.Rate() != ref.rate() || int(w.filled) != ref.filled {
					t.Fatalf("window %d pass %d probe %d: rate %v over %d samples, the bool ring has %v over %d",
						size, pass, i, w.Rate(), int(w.filled), ref.rate(), ref.filled)
				}
			}
			for i, lost := range ref.ring {
				if got := w.ring[i/64]>>(i%64)&1 == 1; got != lost {
					t.Fatalf("window %d pass %d: ring bit %d is %v, the bool ring has %v", size, pass, i, got, lost)
				}
			}
			if tail := size % 64; tail != 0 && w.ring[len(w.ring)-1]>>tail != 0 {
				t.Fatalf("window %d pass %d: bits past the window are set: %#x", size, pass, w.ring[len(w.ring)-1])
			}
			w.Reset()
			if w.Rate() != 0 || int(w.filled) != 0 {
				t.Fatalf("window %d: Reset left rate %v over %d samples", size, w.Rate(), int(w.filled))
			}
			for _, word := range w.ring {
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
		w, ref := newLossWindow(size), &boolRing{ring: make([]bool, size)}
		check := func(step int) {
			if w.Rate() != ref.rate() || int(w.filled) != ref.filled {
				t.Fatalf("window %d step %d: rate %v over %d samples, the bool ring has %v over %d",
					size, step, w.Rate(), int(w.filled), ref.rate(), ref.filled)
			}
			if tail := size % 64; tail != 0 && w.ring[len(w.ring)-1]>>tail != 0 {
				t.Fatalf("window %d step %d: bits past the window are set: %#x", size, step, w.ring[len(w.ring)-1])
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
	w := newLossWindow(MaxLossWindow)
	for i := 0; i < MaxLossWindow+10; i++ {
		w.Record(true)
	}
	if int(w.filled) != MaxLossWindow || w.Rate() != 1 {
		t.Fatalf("full window: rate %v over %d samples, want 1 over %d", w.Rate(), int(w.filled), MaxLossWindow)
	}
	for i := 0; i < MaxLossWindow; i++ {
		w.Record(false)
	}
	if int(w.filled) != MaxLossWindow || w.Rate() != 0 {
		t.Fatalf("turned-over window: rate %v over %d samples, want 0 over %d", w.Rate(), int(w.filled), MaxLossWindow)
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
		"newLossWindow":     func(window int) { newLossWindow(window) },
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
// largest one the field can hold — and the first delivery revives it.
func TestDeadDetectorSaturates(t *testing.T) {
	for _, thr := range []uint16{0, 1, DefaultDeadThreshold, 1000, math.MaxUint16} {
		le := newLinkEstimate()
		le.DeadThreshold = thr
		want := int(thr)
		if thr == 0 {
			want = DefaultDeadThreshold
		}
		for i := 1; i <= 70_000; i++ {
			le.Record(true, 0)
			if dead := le.Dead(); dead != (i >= want) {
				t.Fatalf("threshold %d: Dead() = %v after %d consecutive losses", thr, dead, i)
			}
		}
		if le.consecutiveLosses != math.MaxUint16 {
			t.Fatalf("threshold %d: counter at %d after 70000 losses, want saturated", thr, le.consecutiveLosses)
		}
		le.Record(false, 10*time.Millisecond)
		if le.Dead() {
			t.Fatalf("threshold %d: still dead after a delivery", thr)
		}
		for i := 1; i < want && i < 10; i++ {
			le.Record(true, 0)
			if le.Dead() {
				t.Fatalf("threshold %d: dead again after only %d losses", thr, i)
			}
		}
	}
}

// TestLinkEstimateMatchesEWMA: the estimate's bare-float latency average
// is the standalone latencyEWMA at the default gain, bit for bit, with
// losses interleaved.
func TestLinkEstimateMatchesEWMA(t *testing.T) {
	le := newLinkEstimate()
	ref := &latencyEWMA{alpha: DefaultEWMAAlpha}
	rng := rand.New(rand.NewSource(5))
	const fallback = time.Second
	for i := 0; i < 2000; i++ {
		switch rng.Intn(8) {
		case 0:
			le.Record(true, 0)
		default:
			lat := time.Duration(rng.Int63n(int64(300 * time.Millisecond)))
			le.Record(false, lat)
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
