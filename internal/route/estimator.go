package route

import (
	"fmt"
	"math"
	"time"
)

// DefaultLossWindow is the probe window used for path selection: "The
// paths are selected based upon the average loss rate over the last 100
// probes" (§3.1).
const DefaultLossWindow = 100

// DefaultDeadThreshold is the number of consecutive probe losses after
// which a link is considered completely failed. It matches the paper's
// loss-triggered follow-up: "the node sends an additional string of up to
// four probes ... to determine if the remote host is down" (§3.1).
const DefaultDeadThreshold = 4

// MaxLossWindow is the largest selection window: its cursor and counters
// are 16-bit, so that a link's whole estimate fits one cache line.
const MaxLossWindow = math.MaxUint16

// ValidateLossWindow refuses a selection window past MaxLossWindow (zero
// or negative selects DefaultLossWindow).
func ValidateLossWindow(window int) error {
	if window > MaxLossWindow {
		return fmt.Errorf("route: loss window %d exceeds the %d-probe maximum", window, MaxLossWindow)
	}
	return nil
}

// LossWindow is a fixed-size ring of probe outcomes yielding the average
// loss rate over the most recent window. The ring is a bitset, one bit
// per probe (set = lost); bits at or past filled are zero.
type LossWindow struct {
	ring   []uint64
	size   uint16
	next   uint16
	filled uint16
	losses uint16
}

// ringWords is the number of ring words a window of size probes needs.
func ringWords(size int) int { return (size + 63) / 64 }

// newLossWindow creates a standalone window of the given size (the
// selector carves its windows from one slab); size <= 0 uses
// DefaultLossWindow. It panics past MaxLossWindow.
func newLossWindow(size int) *LossWindow {
	if err := ValidateLossWindow(size); err != nil {
		panic(err)
	}
	if size <= 0 {
		size = DefaultLossWindow
	}
	return &LossWindow{ring: make([]uint64, ringWords(size)), size: uint16(size)}
}

// Record adds one probe outcome. The outcome it displaces is read
// whether or not the window has filled: until then that bit is zero.
func (w *LossWindow) Record(lost bool) {
	word, bit := &w.ring[w.next>>6], uint64(1)<<(w.next&63)
	if *word&bit != 0 {
		w.losses--
	}
	if lost {
		*word |= bit
		w.losses++
	} else {
		*word &^= bit
	}
	if w.filled < w.size {
		w.filled++
	}
	if w.next++; w.next == w.size {
		w.next = 0
	}
}

// Rate returns the loss fraction over the window. With no samples it
// returns 0 (treat unknown links as clean, as RON's bootstrap does).
func (w *LossWindow) Rate() float64 {
	if w.filled == 0 {
		return 0
	}
	return float64(w.losses) / float64(w.filled)
}

// Reset clears the window.
func (w *LossWindow) Reset() {
	clear(w.ring)
	w.next, w.filled, w.losses = 0, 0, 0
}

// DefaultEWMAAlpha is the smoothing gain for latency estimates.
const DefaultEWMAAlpha = 0.1

// LinkEstimate aggregates everything the router knows about one directed
// virtual link (an overlay node pair), fed one probe outcome at a time
// by Record.
//
// The window is embedded by value and the latency EWMA (at
// DefaultEWMAAlpha) is a bare float, so a selector holds its links'
// estimates in one flat slice, 48 bytes each. The zero value reads as an
// unprobed link but cannot Record: its window needs a ring.
type LinkEstimate struct {
	Loss    LossWindow
	latency float64 // smoothed, nanoseconds; meaningful once latValid
	// consecutiveLosses counts probe losses since the last success,
	// saturating; DeadThreshold or more marks the link failed for the lat
	// metric.
	consecutiveLosses uint16
	// DeadThreshold overrides DefaultDeadThreshold when non-zero. Its type
	// is the counter's: every threshold it can hold, the counter reaches.
	DeadThreshold uint16
	latValid      bool // latency holds at least one sample
}

// newLinkEstimate creates a standalone estimate with a default-size
// window.
func newLinkEstimate() *LinkEstimate {
	return &LinkEstimate{Loss: *newLossWindow(0)}
}

// Record folds in one probe outcome. Lost probes carry no latency; a
// delivered probe's latency outside [0, maxLatency) panics, since the
// selector's dead-link sentinel must stay above any two live legs.
func (le *LinkEstimate) Record(lost bool, lat time.Duration) {
	if !lost && uint64(lat) >= uint64(maxLatency) {
		panic(badLatency("probe latency", lat))
	}
	le.Loss.Record(lost)
	if lost {
		if le.consecutiveLosses != math.MaxUint16 {
			le.consecutiveLosses++
		}
		return
	}
	le.consecutiveLosses = 0
	if !le.latValid {
		le.latency = float64(lat)
		le.latValid = true
		return
	}
	// The product is rounded explicitly so that no architecture fuses it
	// into the sum (see pathLoss).
	le.latency += float64(DefaultEWMAAlpha * (float64(lat) - le.latency))
}

// Dead reports whether the link looks completely failed: at least
// DeadThreshold consecutive losses (§3.1's failure-detection probes).
func (le *LinkEstimate) Dead() bool {
	thr := le.DeadThreshold
	if thr == 0 {
		thr = DefaultDeadThreshold
	}
	return le.consecutiveLosses >= thr
}

// LossRate returns the windowed loss estimate.
func (le *LinkEstimate) LossRate() float64 {
	return le.Loss.Rate()
}

// LatencyEstimate returns the smoothed one-way latency; if the link has
// never delivered a probe it returns the pessimistic fallbackLat.
func (le *LinkEstimate) LatencyEstimate(fallback time.Duration) time.Duration {
	if !le.latValid {
		return fallback
	}
	return time.Duration(le.latency)
}
