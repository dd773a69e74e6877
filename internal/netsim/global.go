package netsim

// globalModulator is a network-wide congestion-weather process: rare,
// sustained periods during which every component's burst-entry rate is
// multiplied by a common factor. It models the correlated, concurrent
// failure sources of §2.4 — worms, DDoS storms, cascading logical
// failures — which impair many unrelated paths at once and are a large
// part of why losses on "independent" overlay paths still coincide (the
// second copy of a mesh pair is disproportionately likely to be crossing
// a bad Internet hour when the first copy was lost).
//
// Like components, the modulator is lazily evolved and deterministic.
type globalModulator struct {
	rng      *Source
	now      Time
	active   bool
	boost    float64
	nextFlip Time
	params   GlobalParams
}

// GlobalParams parameterizes the network-wide congestion weather.
type GlobalParams struct {
	// EpisodeEvery is the mean gap between global bad periods; zero
	// disables the modulator.
	EpisodeEvery Time
	// EpisodeMean is the mean duration of a global bad period.
	EpisodeMean Time
	// BoostMin/Max bound the entry-rate multiplier applied to every
	// component during a bad period.
	BoostMin, BoostMax float64
}

// DefaultGlobalParams returns the calibrated weather process: a bad
// stretch every ~30 hours lasting ~1 hour, raising burst pressure 8-25x
// everywhere at once.
func DefaultGlobalParams() GlobalParams {
	return GlobalParams{
		EpisodeEvery: 30 * Hour,
		EpisodeMean:  Hour,
		BoostMin:     8,
		BoostMax:     25,
	}
}

// reset (re)initializes the process in place for seed and p, reusing
// the RNG; disabled params yield a modulator whose factor is always 1.
func (g *globalModulator) reset(seed uint64, p GlobalParams) {
	if g.rng == nil {
		g.rng = NewSource(seed)
	} else {
		g.rng.Seed(seed)
	}
	g.params = p
	g.now, g.active, g.boost = 0, false, 0
	if p.EpisodeEvery > 0 {
		g.nextFlip = Time(g.rng.Exp(float64(p.EpisodeEvery)))
	} else {
		g.nextFlip = never
	}
}

// factorAt returns the entry-rate multiplier at time t, advancing the
// process as needed. Slightly out-of-order queries observe current state.
func (g *globalModulator) factorAt(t Time) float64 {
	for g.nextFlip <= t {
		if g.active {
			g.active = false
			g.nextFlip += Time(g.rng.Exp(float64(g.params.EpisodeEvery)))
		} else {
			g.active = true
			g.boost = g.rng.Uniform(g.params.BoostMin, g.params.BoostMax)
			g.nextFlip += Time(g.rng.Exp(float64(g.params.EpisodeMean)))
		}
	}
	if t > g.now {
		g.now = t
	}
	if g.active {
		return g.boost
	}
	return 1
}
