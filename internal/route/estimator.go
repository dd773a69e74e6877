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

// MaxLossWindow is the largest selection window: a record's cursor and
// counters are 16-bit, so that a link's whole estimate fits 32 bytes.
const MaxLossWindow = math.MaxUint16

// ValidateLossWindow refuses a selection window past MaxLossWindow (zero
// or negative selects DefaultLossWindow).
func ValidateLossWindow(window int) error {
	if window > MaxLossWindow {
		return fmt.Errorf("route: loss window %d exceeds the %d-probe maximum", window, MaxLossWindow)
	}
	return nil
}

// inlineBits is the number of probe outcomes a LinkEstimate holds
// itself: the paper's 100-probe window and then some.
const inlineBits = 128

// spillWords is the number of ring words a window of size probes needs
// past a record's inline outcomes.
func spillWords(size int) int { return max(0, size-inlineBits+63) / 64 }

// DefaultEWMAAlpha is the smoothing gain for latency estimates.
const DefaultEWMAAlpha = 0.1

// LinkEstimate aggregates everything the router knows about one directed
// virtual link (an overlay node pair), fed one probe outcome at a time
// by Record: a loss ring of the last window outcomes, one bit a probe
// (set = lost), a latency EWMA (at DefaultEWMAAlpha) and a saturating
// consecutive-loss counter.
//
// It is 32 bytes, half a cache line, so that a selector holds its links'
// estimates in one flat slice. The window size is the selector's, passed
// to every call that needs it: outcomes 0–127 of the ring live in the
// record, and a wider window keeps the rest in spill words its owner
// passes in. Bits at or past the window are zero, and so is the whole
// record until its first Record: the zero value reads as an unprobed
// link — loss 0, the fallback latency, alive.
type LinkEstimate struct {
	ring    [inlineBits / 64]uint64
	latency float64 // smoothed, nanoseconds; meaningful once flags&latValid
	next    uint16  // the ring position the next outcome overwrites
	losses  uint16  // set bits in the ring
	// consecutiveLosses counts probe losses since the last success,
	// saturating at its maximum, so every threshold Dead takes is
	// reachable.
	consecutiveLosses uint16
	flags             uint8
}

// LinkEstimate flags.
const (
	wrapped  = 1 << iota // the cursor has wrapped: the ring holds a whole window
	latValid             // latency holds at least one sample
)

// empty reports whether the record has taken no outcome since it was
// zeroed.
func (le *LinkEstimate) empty() bool { return le.next == 0 && le.flags&wrapped == 0 }

// Record folds in one probe outcome over a window of window probes
// (1..MaxLossWindow), spill holding the link's ring words past
// inlineBits. The outcome it displaces in the ring is read whether or not
// the window has filled: until then that bit is zero. Lost probes carry
// no latency; a delivered probe's latency outside [0, maxLatency)
// panics, since the selector's dead-link sentinel must stay above any
// two live legs.
func (le *LinkEstimate) Record(lost bool, lat time.Duration, window int, spill []uint64) {
	if !lost && uint64(lat) >= uint64(maxLatency) {
		panic(badLatency("probe latency", lat))
	}
	pos := le.next
	var word *uint64
	if pos < inlineBits {
		word = &le.ring[pos/64]
	} else {
		word = &spill[(pos-inlineBits)/64]
	}
	bit := uint64(1) << (pos % 64)
	if *word&bit != 0 {
		le.losses--
	}
	if le.next++; int(le.next) == window {
		le.next = 0
		le.flags |= wrapped
	}
	if lost {
		*word |= bit
		le.losses++
		if le.consecutiveLosses != math.MaxUint16 {
			le.consecutiveLosses++
		}
		return
	}
	*word &^= bit
	le.consecutiveLosses = 0
	if le.flags&latValid == 0 {
		le.latency = float64(lat)
		le.flags |= latValid
		return
	}
	// The product is rounded explicitly so that no architecture fuses it
	// into the sum (see pathLoss).
	le.latency += float64(DefaultEWMAAlpha * (float64(lat) - le.latency))
}

// filled returns the number of outcomes the ring holds, at most window.
func (le *LinkEstimate) filled(window int) int {
	if le.flags&wrapped != 0 {
		return window
	}
	return int(le.next)
}

// LossRate returns the loss fraction over the window. With no samples it
// returns 0 (treat unknown links as clean, as RON's bootstrap does).
func (le *LinkEstimate) LossRate(window int) float64 {
	filled := le.filled(window)
	if filled == 0 {
		return 0
	}
	return float64(le.losses) / float64(filled)
}

// Dead reports whether the link looks completely failed: at least
// threshold consecutive losses (§3.1's failure-detection probes; the
// selector's threshold is DefaultDeadThreshold).
func (le *LinkEstimate) Dead(threshold uint16) bool {
	return le.consecutiveLosses >= threshold
}

// LatencyEstimate returns the smoothed one-way latency; if the link has
// never delivered a probe it returns the pessimistic fallbackLat.
func (le *LinkEstimate) LatencyEstimate(fallback time.Duration) time.Duration {
	if le.flags&latValid == 0 {
		return fallback
	}
	return time.Duration(le.latency)
}
