package fec

import (
	"fmt"
	"time"
)

// Schedule assigns a send offset to each shard of a code group. §5.2's
// point is that with ~70% conditional loss probability, parity must be
// spread "by nearly half a second" on a single path to escape the burst
// that claimed the data packets; Schedule makes that spreading explicit
// and testable.
type Schedule struct {
	// Offsets[i] is when shard i should be sent, relative to the
	// group's first transmission.
	Offsets []time.Duration
}

// EvenSpread schedules n shards uniformly across span: shard i departs at
// i*span/(n-1). span 0 sends everything back-to-back.
func EvenSpread(n int, span time.Duration) (Schedule, error) {
	if n < 1 {
		return Schedule{}, fmt.Errorf("fec: schedule needs at least one shard")
	}
	if span < 0 {
		return Schedule{}, fmt.Errorf("fec: negative span")
	}
	off := make([]time.Duration, n)
	if n > 1 && span > 0 {
		step := span / time.Duration(n-1)
		for i := range off {
			off[i] = step * time.Duration(i)
		}
	}
	return Schedule{Offsets: off}, nil
}

// DataFirst schedules the k data shards back-to-back at time zero and
// spreads the m parity shards across span afterwards — the "efficient FEC
// sends the original packets first, to avoid adding latency in the
// no-loss case" (§5.2).
func DataFirst(k, m int, span time.Duration) (Schedule, error) {
	if k < 1 || m < 0 {
		return Schedule{}, fmt.Errorf("fec: invalid group (k=%d, m=%d)", k, m)
	}
	if span < 0 {
		return Schedule{}, fmt.Errorf("fec: negative span")
	}
	off := make([]time.Duration, k+m)
	if m > 0 && span > 0 {
		step := span / time.Duration(m)
		for p := 0; p < m; p++ {
			off[k+p] = step * time.Duration(p+1)
		}
	}
	return Schedule{Offsets: off}, nil
}
