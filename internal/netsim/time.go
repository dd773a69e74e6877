package netsim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual simulation timestamp in nanoseconds since the start of
// the campaign. The simulator has no relation to the wall clock; this
// stands in for the GPS-synchronized clocks of the paper's testbed (§4.1).
type Time int64

// Common time constants expressed as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
	Day              = 24 * Hour
)

// FromDuration converts a time.Duration to a Time delta.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Duration converts a Time delta to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the timestamp as a duration from campaign start.
func (t Time) String() string {
	return fmt.Sprintf("t+%s", time.Duration(t))
}

// TimeOfDay returns the offset into the simulated day, in [0, Day).
// The campaign starts at simulated midnight.
func (t Time) TimeOfDay() Time {
	tod := t % Day
	if tod < 0 {
		tod += Day
	}
	return tod
}

// diurnalFactor scales congestion-entry pressure by time of day. Internet
// load follows a diurnal cycle — the paper observes that "during many
// hours of the day, the Internet is mostly quiescent and loss rates are
// low". The factor peaks mid-afternoon (~1.8) and bottoms out in the early
// morning (~0.3); its mean over a day is ~1, so class parameters are
// calibrated at the daily average.
func diurnalFactor(t Time) float64 {
	// Fraction of the day in [0,1), with the peak placed at 15:00.
	frac := float64(t.TimeOfDay()) / float64(Day)
	// A raised cosine centered on 15:00: 0.3 at trough, ~1.7 at peak.
	const peakAt = 15.0 / 24.0
	phase := 2 * math.Pi * (frac - peakAt)
	return 1.0 + float64(0.7*math.Cos(phase))
}
