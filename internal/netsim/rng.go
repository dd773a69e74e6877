package netsim

import (
	"math"

	"repro/internal/detmath"
)

// This file shapes the simulator's random streams from the draws that
// package detmath defines. Two kinds of randomness are needed:
//
//   - Sequential draws that evolve a component's state machine through
//     time (burst start/stop, outage start/stop, episode arrivals). These
//     come from a per-component Source seeded from the network seed and
//     the component ID, so every component's trajectory is an independent,
//     reproducible stream.
//
//   - Per-packet draws (drop decision inside a burst, queueing delay).
//     These are computed by hashing (component seed, packet id, traversal
//     index) so that the outcome of a packet does not depend on how many
//     other packets happened to query the component first. This keeps
//     results bit-reproducible even if callers interleave sends on
//     different paths in different orders.

// Source is a small, fast deterministic PRNG (xorshift128+ seeded via
// SplitMix64). The zero value is not usable; construct with NewSource.
type Source struct {
	s0, s1 uint64
}

// NewSource returns a Source seeded deterministically from seed.
func NewSource(seed uint64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the source to the stream identified by seed. It never
// makes xorshift's stuck all-zero state: s1 is Mix(s0), and Mix(0) ≠ 0.
func (s *Source) Seed(seed uint64) {
	s.s0 = detmath.Mix(seed)
	s.s1 = detmath.Mix(s.s0)
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	x, y := s.s0, s.s1
	s.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	s.s1 = x
	return x + y
}

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 {
	return detmath.Unit(s.Uint64())
}

// Exp returns an exponentially distributed value with the given mean.
// A zero or negative mean returns 0.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return detmath.Exp(s.Float64(), mean)
}

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Intn returns a uniform int in [0, n). n must be positive.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("netsim: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// LogNormal returns a log-normally distributed value whose underlying
// normal has the given mu and sigma (natural-log parameters).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.Norm())
}

// Norm returns a standard normal deviate (Box–Muller; one value per call,
// the second is discarded to keep the stream shape simple).
func (s *Source) Norm() float64 {
	u1, u2 := s.Float64(), s.Float64()
	// detmath.Exp(u1, 2) is -2·ln u1, with the deviates' guard on u1 = 0.
	return math.Sqrt(detmath.Exp(u1, 2)) * math.Cos(2*math.Pi*u2)
}

// hash01 maps an arbitrary 64-bit key to a uniform float in [0,1),
// deterministically. Used for per-packet decisions.
func hash01(key uint64) float64 {
	return detmath.Unit(detmath.Mix(key))
}

// combine mixes several values into one hash key.
func combine(a, b, c uint64) uint64 {
	return detmath.Mix(a ^ detmath.Mix(b^detmath.Mix(c)))
}

// smallMix caches detmath.Mix of the small traversal indices so the
// per-traversal key derivation skips the innermost hash round.
var smallMix = func() [8]uint64 {
	var t [8]uint64
	for i := range t {
		t[i] = detmath.Mix(uint64(i))
	}
	return t
}()

// transitKey is combine(seed, pktKey, travIdx) with the inner
// detmath.Mix(travIdx) read from a table (travIdx < 8 always: at most six
// traversals per packet).
func transitKey(seed, pktKey, travIdx uint64) uint64 {
	return detmath.Mix(seed ^ detmath.Mix(pktKey^smallMix[travIdx]))
}
