package fec

import (
	"errors"
	"fmt"
)

// Errors returned by the codec.
var (
	// ErrShardSize indicates inconsistent or empty shard sizes.
	ErrShardSize = errors.New("fec: shards must be non-empty and equally sized")
	// ErrTooFewShards indicates more erasures than parity can repair.
	ErrTooFewShards = errors.New("fec: not enough shards to reconstruct")
	// ErrShardCount indicates a wrong number of shards was supplied.
	ErrShardCount = errors.New("fec: wrong shard count")
)

// Code is a systematic Reed–Solomon erasure code with K data shards and M
// parity shards: any K of the K+M shards reconstruct the original data.
// In the paper's §5.2 example, a code correcting 20% loss adds one parity
// packet per five data packets — Code{K: 5, M: 1}.
//
// A Code is immutable and safe for concurrent use.
type Code struct {
	k, m int
	enc  *matrix // (k+m)×k systematic encoding matrix
}

// NewCode builds a code with k data and m parity shards. k+m must stay
// within the field (≤ 256).
func NewCode(k, m int) (*Code, error) {
	if k < 1 || m < 0 || k+m > 256 {
		return nil, fmt.Errorf("fec: invalid code (k=%d, m=%d)", k, m)
	}
	return &Code{k: k, m: m, enc: systematicEncoding(k, m)}, nil
}

// K returns the number of data shards.
func (c *Code) K() int { return c.k }

// M returns the number of parity shards.
func (c *Code) M() int { return c.m }

// Encode computes parity for the k data shards and returns the full
// shard set (data shards aliased, parity freshly allocated).
func (c *Code) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("%w: got %d data shards, want %d",
			ErrShardCount, len(data), c.k)
	}
	size, err := shardSize(data)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, c.k+c.m)
	copy(out, data)
	for p := 0; p < c.m; p++ {
		parity := make([]byte, size)
		row := c.enc.row(c.k + p)
		for j := 0; j < c.k; j++ {
			mulAdd(parity, data[j], row[j])
		}
		out[c.k+p] = parity
	}
	return out, nil
}

// Reconstruct fills in missing shards (nil entries) in place, given at
// least K present shards of the K+M produced by Encode. Present shards
// are trusted (erasure channel, not error channel — packet loss tells us
// exactly which shards vanished).
func (c *Code) Reconstruct(shards [][]byte) error {
	if len(shards) != c.k+c.m {
		return fmt.Errorf("%w: got %d shards, want %d",
			ErrShardCount, len(shards), c.k+c.m)
	}
	present := make([]int, 0, c.k)
	var size int
	for i, s := range shards {
		if s == nil {
			continue
		}
		if size == 0 {
			size = len(s)
		}
		if len(s) != size || size == 0 {
			return ErrShardSize
		}
		present = append(present, i)
	}
	if len(present) == len(shards) {
		return nil // nothing missing
	}
	if len(present) < c.k {
		return fmt.Errorf("%w: have %d, need %d", ErrTooFewShards,
			len(present), c.k)
	}
	present = present[:c.k]

	// Solve for the data shards: rows of the encoding matrix for the
	// present shards form an invertible k×k system.
	sys := newMatrix(c.k, c.k)
	for r, idx := range present {
		copy(sys.row(r), c.enc.row(idx))
	}
	inv, err := sys.invert()
	if err != nil {
		return err
	}
	// data[j] = Σ_r inv[j][r] * shards[present[r]]
	data := make([][]byte, c.k)
	for j := 0; j < c.k; j++ {
		if shards[j] != nil {
			data[j] = shards[j] // systematic shortcut
			continue
		}
		buf := make([]byte, size)
		for r := 0; r < c.k; r++ {
			mulAdd(buf, shards[present[r]], inv.at(j, r))
		}
		data[j] = buf
		shards[j] = buf
	}
	// Recompute any missing parity from the (now complete) data.
	for p := 0; p < c.m; p++ {
		if shards[c.k+p] != nil {
			continue
		}
		parity := make([]byte, size)
		row := c.enc.row(c.k + p)
		for j := 0; j < c.k; j++ {
			mulAdd(parity, data[j], row[j])
		}
		shards[c.k+p] = parity
	}
	return nil
}

// shardSize validates equal, nonzero shard lengths.
func shardSize(shards [][]byte) (int, error) {
	if len(shards) == 0 || len(shards[0]) == 0 {
		return 0, ErrShardSize
	}
	size := len(shards[0])
	for _, s := range shards {
		if len(s) != size {
			return 0, ErrShardSize
		}
	}
	return size, nil
}
