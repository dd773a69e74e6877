package netsim

import (
	"math"

	"repro/internal/detmath"
)

// never is a sentinel Time for "no scheduled event".
const never = Time(math.MaxInt64)

// ComponentID identifies a component inside a Network.
type ComponentID int32

// NoComponent marks the absence of a component (e.g. no drop occurred).
const NoComponent ComponentID = -1

// Component models one piece of shared network infrastructure — a host's
// access complex or the backbone between a host pair — as a set of lazily
// evolved stochastic processes:
//
//   - a Gilbert–Elliott congestion process (good periods alternate with
//     loss bursts; each burst has its own drop severity),
//   - an up/down outage process (total loss while down),
//   - a congestion-episode modulator that multiplies burst pressure for
//     sustained stretches (driving the paper's high-loss hours, Table 6),
//   - a latency-inflation episode process (the Cornell pathology, §4.5).
//
// Components are evolved only when queried ("lazy continuous-time Markov
// chain"): Transit advances all processes to the query time and then
// decides the packet's fate. Per-packet decisions are hash-derived from
// the packet key, so outcomes do not depend on how queries from different
// paths interleave. Queries slightly in the past (a packet sent earlier on
// a longer route) observe the current state; the error is bounded by one
// path latency, far below burst durations.
//
// Components are not safe for concurrent use; the Network serializes
// access.
type Component struct {
	// The first cache line holds everything Transit reads when no
	// process event falls between two packets: advance's two compares,
	// the state flags, the per-packet hash seed, and the parameter set
	// that carries the delay means. Components are slab-allocated at a
	// multiple of the line size, so the split holds for every one.
	now Time
	// nextAny caches min(nextCong, nextOutage, nextEpisode, nextLat) so
	// the per-traversal advance fast path is a single comparison; it is
	// recomputed whenever any timer moves.
	nextAny Time
	seed    uint64
	// params is the component's effective parameter set, shared with
	// every component of the same kind (see Network.params); read-only.
	params     *paramSet
	severity   float64 // drop probability while this burst lasts
	latInflate Time
	id         ComponentID
	class      ComponentClass
	down       bool // outage process
	congested  bool // congestion process
	latActive  bool // latency-inflation episodes
	// episodeActive is the congestion-episode modulator's state.
	episodeActive bool

	// The second line is the slow path's: the sequential RNG and the
	// four process timers advanceSlow walks.
	rng          Source
	nextCong     Time // next congestion state flip
	nextOutage   Time
	nextEpisode  Time // next start (if inactive) or end (if active)
	nextLat      Time
	episodeBoost float64
	_            [8]byte // pads the struct to two 64-byte lines
}

// paramSet is one entry of a Network's parameter table: an effective
// ComponentParams plus what every component sharing it would otherwise
// carry a copy of. The table is rebuilt per Reset, so the per-network
// values stay current.
type paramSet struct {
	ComponentParams
	// jitterMeanF/queueMeanF are the delay means pre-converted to
	// float64 once, for the per-traversal exponential draws.
	jitterMeanF float64
	queueMeanF  float64
	// global, when non-nil, is the network-wide congestion weather
	// shared by all components (§2.4's correlated failure sources).
	global *globalModulator
}

// newParamSet wraps an effective parameter set for components to share.
func newParamSet(p ComponentParams, global *globalModulator) paramSet {
	return paramSet{
		ComponentParams: p,
		jitterMeanF:     float64(p.JitterMean),
		queueMeanF:      float64(p.QueueMean),
		global:          global,
	}
}

// weatherAt returns the global congestion factor at t, 1 without a
// modulator (dividing by it is then exact).
func (p *paramSet) weatherAt(t Time) float64 {
	if p.global == nil {
		return 1
	}
	return p.global.factorAt(t)
}

// newComponent creates a standalone component (tests and tools);
// Network slab-allocates its components and uses init directly.
func newComponent(id ComponentID, seed uint64, class ComponentClass,
	prof *Profile, params ComponentParams, global *globalModulator) *Component {
	params.MeanGood = prof.effectiveMeanGood(class, params.MeanGood)
	set := newParamSet(params, global)
	c := &Component{}
	c.init(id, seed, class, &set, set.weatherAt(0))
	return c
}

// init constructs a component in place at virtual time 0 in the good/up
// state with all next events drawn from the stationary processes
// (components are slab-allocated per Network). params is the effective
// set — profile knobs already applied — and is retained, not copied.
// weather0 is the global congestion factor at time 0: the modulator only
// moves forward, so a component built after the campaign has advanced it
// is handed the value captured at Reset instead of asking again.
func (c *Component) init(id ComponentID, seed uint64, class ComponentClass,
	params *paramSet, weather0 float64) {
	*c = Component{id: id, seed: seed, class: class, params: params}
	c.rng.Seed(seed)
	c.nextCong = c.goodEnd(0, weather0)
	if params.MeanUp > 0 {
		c.nextOutage = Time(c.rng.Exp(float64(params.MeanUp)))
	} else {
		c.nextOutage = never
	}
	if params.EpisodeEvery > 0 {
		c.nextEpisode = Time(c.rng.Exp(float64(params.EpisodeEvery)))
	} else {
		c.nextEpisode = never
	}
	if params.LatEpisodeEvery > 0 {
		c.nextLat = Time(c.rng.Exp(float64(params.LatEpisodeEvery)))
	} else {
		c.nextLat = never
	}
	c.refreshNextAny()
}

// refreshNextAny recomputes the cached earliest pending event.
func (c *Component) refreshNextAny() {
	next := c.nextCong
	if c.nextOutage < next {
		next = c.nextOutage
	}
	if c.nextEpisode < next {
		next = c.nextEpisode
	}
	if c.nextLat < next {
		next = c.nextLat
	}
	c.nextAny = next
}

// drawGoodEnd returns the end time of a good period starting at t, under
// the current diurnal factor, episode boost and global weather.
func (c *Component) drawGoodEnd(t Time) Time {
	return c.goodEnd(t, c.params.weatherAt(t))
}

// goodEnd is drawGoodEnd with the global weather factor supplied.
func (c *Component) goodEnd(t Time, weather float64) Time {
	mean := float64(c.params.MeanGood)
	mean /= diurnalFactor(t)
	if c.episodeActive && c.episodeBoost > 0 {
		mean /= c.episodeBoost
	}
	mean /= weather
	// Good periods, like the outage and episode draws in advanceSlow,
	// stay on Exp: their means (12.5 s and up) are past where ExpInt's
	// fast path pays (see Source.ExpInt).
	d := Time(c.rng.Exp(mean))
	if d < Millisecond {
		d = Millisecond
	}
	return t + d
}

// drawBurst enters a loss burst at time t: picks its duration (short or
// long mode) and severity.
func (c *Component) drawBurst(t Time) {
	c.congested = true
	var mean float64
	if c.rng.Float64() < c.params.ShortWeight {
		mean = float64(c.params.MeanBadShort)
	} else {
		mean = float64(c.params.MeanBadLong)
	}
	d := Time(c.rng.ExpInt(mean))
	if d < Millisecond {
		d = Millisecond
	}
	c.nextCong = t + d
	c.severity = c.rng.Uniform(c.params.DropProbMin, c.params.DropProbMax)
}

// advance evolves every process up to time t. The common case — no
// process event between two packets — is a pair of comparisons against
// the cached nextAny; it stays under the inlining budget so Transit
// pays no call in that case. Events are handled by advanceSlow in
// chronological order.
func (c *Component) advance(t Time) {
	if t <= c.now {
		return
	}
	if t < c.nextAny {
		c.now = t
		return
	}
	c.advanceSlow(t)
}

func (c *Component) advanceSlow(t Time) {
	for {
		// Find the earliest pending event not after t.
		next := c.nextAny
		if next > t {
			break
		}
		switch next {
		case c.nextCong:
			if c.congested {
				c.congested = false
				c.nextCong = c.drawGoodEnd(next)
			} else {
				c.drawBurst(next)
			}
		case c.nextOutage:
			if c.down {
				c.down = false
				c.nextOutage = next + Time(c.rng.Exp(float64(c.params.MeanUp)))
			} else {
				c.down = true
				// Heavy-tailed repair time: most outages last
				// minutes (routing convergence), some much longer
				// (§2: "tens of minutes to stabilize after a
				// fault").
				dur := c.rng.LogNormal(
					math.Log(float64(c.params.MeanDown)), 0.7)
				c.nextOutage = next + Time(dur)
			}
		case c.nextEpisode:
			if c.episodeActive {
				c.episodeActive = false
				c.nextEpisode = next + Time(c.rng.Exp(float64(c.params.EpisodeEvery)))
			} else {
				c.episodeActive = true
				c.episodeBoost = c.rng.Uniform(
					c.params.EpisodeBoostMin, c.params.EpisodeBoostMax)
				c.nextEpisode = next + Time(c.rng.Exp(float64(c.params.EpisodeMean)))
			}
			// The congestion-entry rate changed; if currently in a
			// good period, re-draw its end from the new rate
			// (memorylessness makes this statistically sound).
			if !c.congested {
				c.nextCong = c.drawGoodEnd(next)
			}
		case c.nextLat:
			if c.latActive {
				c.latActive = false
				c.latInflate = 0
				c.nextLat = next + Time(c.rng.Exp(float64(c.params.LatEpisodeEvery)))
			} else {
				c.latActive = true
				// Log-uniform inflation: many ~100 ms events, rare
				// second-scale ones.
				lo := float64(c.params.LatInflateMin)
				hi := float64(c.params.LatInflateMax)
				if lo <= 0 {
					lo = float64(Millisecond)
				}
				u := c.rng.Float64()
				c.latInflate = Time(lo * math.Pow(hi/lo, u))
				c.nextLat = next + Time(c.rng.Exp(float64(c.params.LatEpisodeMean)))
			}
		}
		c.refreshNextAny()
	}
	c.now = t
}

// Transit passes one packet through the component at time t. pktKey is a
// stable per-packet identifier and travIdx distinguishes multiple
// traversals of the same component by one packet (an indirect route
// crosses the intermediate's access complex twice). It returns whether
// the packet was dropped and the extra delay (queueing + jitter +
// inflation) it accrued.
func (c *Component) Transit(t Time, pktKey uint64, travIdx uint64) (drop bool, delay Time) {
	c.advance(t)
	if c.down {
		return true, 0
	}
	key := transitKey(c.seed, pktKey, travIdx)
	// Per-packet draws are stateless hashes of key, so the drop decision
	// can run before the jitter draw: a congestion-dropped packet skips
	// its (discarded) delay computation without perturbing any other
	// packet's outcome. Every draw inlines here (the means are
	// pre-converted): this is the simulator's innermost arithmetic.
	if c.congested && hash01(key) < c.severity {
		return true, 0
	}
	if mean := c.params.jitterMeanF; mean > 0 {
		delay = Time(detmath.ExpInt(hash01(key^0x9E37), mean))
	}
	if mean := c.params.queueMeanF; c.congested && mean > 0 {
		delay += Time(detmath.ExpInt(hash01(key^0xC2B2), mean))
	}
	if c.latActive {
		delay += c.latInflate
	}
	return false, delay
}

// Probe reports the component's state at time t without consuming
// per-packet randomness (used by tests and diagnostics).
func (c *Component) Probe(t Time) (down, congested bool, severity float64) {
	c.advance(t)
	return c.down, c.congested, c.severity
}

// ForceDown injects a deterministic outage: the component goes down at
// time from and recovers at from+duration, after which the stochastic
// outage process resumes. It is a testing/fault-injection hook; the time
// must not precede queries already served (components evolve forward
// only).
// A forced outage overlapping an in-progress natural outage extends it
// when the forced window ends later, and otherwise leaves the natural
// recovery time alone — injection must never shorten downtime the
// stochastic process already committed to.
func (c *Component) ForceDown(from Time, duration Time) {
	c.advance(from)
	until := from + duration
	if !c.down {
		c.down = true
		c.nextOutage = until
	} else if until > c.nextOutage {
		c.nextOutage = until
	}
	c.refreshNextAny()
}

// ForceCongestion injects a deterministic loss burst with the given drop
// severity from time from for the given duration. Like ForceDown it must
// not precede already-served queries.
// Like ForceDown, a forced burst never shortens an in-progress episode.
func (c *Component) ForceCongestion(from Time, duration Time, severity float64) {
	c.advance(from)
	until := from + duration
	if !c.congested {
		c.congested = true
		c.nextCong = until
	} else if until > c.nextCong {
		c.nextCong = until
	}
	c.severity = severity
	c.refreshNextAny()
}
