package route

import (
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

// LossWindow is a fixed-size ring of probe outcomes yielding the average
// loss rate over the most recent window.
type LossWindow struct {
	ring   []bool // true = lost
	size   int
	next   int
	filled int
	losses int
}

// NewLossWindow creates a window of the given size; size <= 0 uses
// DefaultLossWindow.
func NewLossWindow(size int) *LossWindow {
	if size <= 0 {
		size = DefaultLossWindow
	}
	return &LossWindow{ring: make([]bool, size), size: size}
}

// initShared points the window at a caller-owned ring slice, letting a
// selector back every link's window with one dense allocation.
func (w *LossWindow) initShared(ring []bool) {
	w.ring = ring
	w.size = len(ring)
}

// Record adds one probe outcome.
func (w *LossWindow) Record(lost bool) {
	if w.filled == w.size {
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

// Samples returns how many outcomes the window currently holds.
func (w *LossWindow) Samples() int { return w.filled }

// Reset clears the window.
func (w *LossWindow) Reset() {
	for i := range w.ring {
		w.ring[i] = false
	}
	w.next, w.filled, w.losses = 0, 0, 0
}

// DefaultEWMAAlpha is the smoothing gain for latency estimates.
const DefaultEWMAAlpha = 0.1

// LatencyEWMA smooths one-way latency samples with an exponentially
// weighted moving average.
type LatencyEWMA struct {
	alpha float64
	value float64 // nanoseconds
	valid bool
}

// NewLatencyEWMA creates an estimator; alpha <= 0 uses DefaultEWMAAlpha.
func NewLatencyEWMA(alpha float64) *LatencyEWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultEWMAAlpha
	}
	return &LatencyEWMA{alpha: alpha}
}

// Record adds one latency sample.
func (e *LatencyEWMA) Record(d time.Duration) {
	if !e.valid {
		e.value = float64(d)
		e.valid = true
		return
	}
	e.value += e.alpha * (float64(d) - e.value)
}

// Value returns the smoothed latency, or 0 if no samples were recorded.
func (e *LatencyEWMA) Value() time.Duration { return time.Duration(e.value) }

// Valid reports whether at least one sample has been recorded.
func (e *LatencyEWMA) Valid() bool { return e.valid }

// Reset clears the estimator.
func (e *LatencyEWMA) Reset() { e.value, e.valid = 0, false }

// LinkEstimate aggregates everything the router knows about one directed
// virtual link (an overlay node pair). Links a node measures itself are
// fed with Record; links learned from other nodes' link-state gossip are
// fed with SetSummary. The two modes are exclusive per link.
//
// The window and EWMA are embedded by value so a selector can hold its
// links' estimates in one flat slice; the zero value is not usable —
// construct with NewLinkEstimate (or, inside a Selector, init).
type LinkEstimate struct {
	Loss    LossWindow
	Latency LatencyEWMA
	// consecutiveLosses counts probe losses since the last success;
	// DeadThreshold or more marks the link failed for the lat metric.
	consecutiveLosses int
	// DeadThreshold overrides DefaultDeadThreshold when positive.
	DeadThreshold int

	// summary state, for gossip-learned links.
	useSummary  bool
	sumLoss     float64
	sumLat      time.Duration
	sumLatValid bool
	sumDead     bool
}

// NewLinkEstimate creates an estimate with default-size window and EWMA.
func NewLinkEstimate() *LinkEstimate {
	le := &LinkEstimate{}
	le.init(make([]bool, DefaultLossWindow))
	return le
}

// init readies an estimate in place over a caller-owned ring slice.
func (le *LinkEstimate) init(ring []bool) {
	le.Loss.initShared(ring)
	le.Latency.alpha = DefaultEWMAAlpha
}

// Record folds in one probe outcome. Lost probes carry no latency.
// Recording switches the link back to locally measured mode.
func (le *LinkEstimate) Record(lost bool, lat time.Duration) {
	le.useSummary = false
	le.Loss.Record(lost)
	if lost {
		le.consecutiveLosses++
		return
	}
	le.consecutiveLosses = 0
	le.Latency.Record(lat)
}

// SetSummary overwrites the link's estimate with a remote node's gossiped
// summary (loss fraction, smoothed latency, failure flag).
func (le *LinkEstimate) SetSummary(loss float64, lat time.Duration, dead bool) {
	le.useSummary = true
	le.sumLoss = loss
	le.sumLat = lat
	le.sumLatValid = lat > 0
	le.sumDead = dead
}

// Dead reports whether the link looks completely failed: at least
// DeadThreshold consecutive losses (§3.1's failure-detection probes), or
// the gossiped failure flag.
func (le *LinkEstimate) Dead() bool {
	if le.useSummary {
		return le.sumDead
	}
	thr := le.DeadThreshold
	if thr <= 0 {
		thr = DefaultDeadThreshold
	}
	return le.consecutiveLosses >= thr
}

// LossRate returns the windowed loss estimate.
func (le *LinkEstimate) LossRate() float64 {
	if le.useSummary {
		return le.sumLoss
	}
	return le.Loss.Rate()
}

// LatencyEstimate returns the smoothed one-way latency; if the link has
// never delivered a probe it returns the pessimistic fallbackLat.
func (le *LinkEstimate) LatencyEstimate(fallback time.Duration) time.Duration {
	if le.useSummary {
		if !le.sumLatValid {
			return fallback
		}
		return le.sumLat
	}
	if !le.Latency.Valid() {
		return fallback
	}
	return le.Latency.Value()
}
