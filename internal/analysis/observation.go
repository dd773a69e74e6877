// Package analysis computes the paper's evaluation statistics from probe
// observations: per-method loss percentages and conditional loss
// probabilities (Table 5, Table 7), windowed loss-rate distributions
// (Figure 3, Table 6), per-path long-term loss (Figure 2), per-path CLP
// distributions (Figure 4), and latency distributions (Figure 5).
//
// The aggregator is streaming: campaign drivers feed it one Observation
// per probe and it maintains constant-size state per (method, path) plus
// the emitted window samples, so multi-day campaigns with tens of
// millions of probes fit comfortably in memory.
//
// Aggregators compose: Merge folds replicate campaigns together with
// order-independent query results, and AppendBinary/UnmarshalAggregator
// round-trip the complete state bit-exactly (floats as IEEE-754 bits),
// so distributed sweep shards can persist, ship, and recombine their
// statistics into tables byte-identical to an in-process run.
package analysis

import (
	"fmt"
	"time"
)

// Observation records the outcome of one probe: one or two packet copies
// sent from Src to Dst at (virtual or wall) time Time.
type Observation struct {
	// Method indexes the campaign's method list.
	Method int
	// Src and Dst are host indices.
	Src, Dst int
	// Time is nanoseconds since campaign start.
	Time int64
	// Copies is 1 or 2.
	Copies int
	// Lost reports per-copy loss; only the first Copies entries are
	// meaningful.
	Lost [2]bool
	// Lat holds per-copy one-way latency (or RTT in round-trip
	// campaigns); meaningful only for delivered copies.
	Lat [2]time.Duration
}

// Probe is one measurement probe as a campaign sent it: the Observation
// its aggregator received, plus what the probe's §4.1 log records carry
// beyond it. internal/trace turns it into those records.
type Probe struct {
	Observation
	// ID is the probe's 64-bit §4.1 identifier, shared by its copies.
	ID uint64
	// Sent holds each copy's send time, nanoseconds since campaign
	// start; Via its intermediate, -1 for the direct path; Tactic its
	// routing tactic as a route.Tactic value. Only the first Copies
	// entries are meaningful.
	Sent   [2]int64
	Via    [2]int
	Tactic [2]uint8
}

// EffectiveLost reports whether the probe failed end-to-end: every copy
// lost. This is the loss notion behind totlp in Table 5 and the windowed
// rates of Figure 3 and Table 6.
func (o *Observation) EffectiveLost() bool {
	if o.Copies == 1 {
		return o.Lost[0]
	}
	return o.Lost[0] && o.Lost[1]
}

// EffectiveLatency returns the latency the application experiences: the
// earliest delivered copy. ok is false when all copies were lost.
func (o *Observation) EffectiveLatency() (time.Duration, bool) {
	switch {
	case o.Copies == 1:
		if o.Lost[0] {
			return 0, false
		}
		return o.Lat[0], true
	case o.Lost[0] && o.Lost[1]:
		return 0, false
	case o.Lost[0]:
		return o.Lat[1], true
	case o.Lost[1]:
		return o.Lat[0], true
	default:
		if o.Lat[1] < o.Lat[0] {
			return o.Lat[1], true
		}
		return o.Lat[0], true
	}
}

// Validate checks structural sanity of an observation against the mesh
// size and method count.
func (o *Observation) Validate(nMethods, nHosts int) error {
	if o.Method < 0 || o.Method >= nMethods {
		return fmt.Errorf("analysis: method %d out of range [0,%d)", o.Method, nMethods)
	}
	if o.Src < 0 || o.Src >= nHosts || o.Dst < 0 || o.Dst >= nHosts || o.Src == o.Dst {
		return fmt.Errorf("analysis: bad path %d→%d for %d hosts", o.Src, o.Dst, nHosts)
	}
	if o.Copies != 1 && o.Copies != 2 {
		return fmt.Errorf("analysis: copies = %d, want 1 or 2", o.Copies)
	}
	return nil
}
