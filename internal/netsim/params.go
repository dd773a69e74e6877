package netsim

import (
	"time"

	"repro/internal/topo"
)

// ComponentClass identifies what a component models; it selects the
// parameter set and is useful when attributing drops.
type ComponentClass uint8

// Component classes.
const (
	// ClassAccess models a host's last-mile/access infrastructure,
	// shared by every path into or out of that host (§2.4: "single-homed
	// hosts share the same last-mile link ... obvious shared bottleneck
	// and non-independent failure point").
	ClassAccess ComponentClass = iota
	// ClassBackbone models the wide-area segment between a specific
	// host pair, not shared with paths through other intermediates.
	ClassBackbone
)

// String labels the class.
func (c ComponentClass) String() string {
	if c == ClassAccess {
		return "access"
	}
	return "backbone"
}

// ComponentParams is the full stochastic parameterization of one
// component. All rates are calibrated at the diurnal average; the
// congestion-entry process is additionally modulated by time of day and
// by congestion episodes.
type ComponentParams struct {
	// MeanGood is the average uncongested period between loss bursts.
	MeanGood time.Duration
	// Loss bursts have hyperexponential duration: a short mode (router
	// queue overflow transients) and a long mode (sustained congestion).
	// ShortWeight is the probability of the short mode.
	MeanBadShort time.Duration
	MeanBadLong  time.Duration
	ShortWeight  float64
	// DropProbMin/Max bound the per-burst drop severity; each burst
	// draws a severity uniformly from this range. Back-to-back packets
	// inside one burst are dropped independently at this probability,
	// which is what produces the paper's ~70% conditional loss
	// probability (§4.4).
	DropProbMin, DropProbMax float64

	// Outage process: the component is fully down for MeanDown-ish
	// periods separated by MeanUp-ish periods (router/link failures,
	// §2: "outages lasting several minutes").
	MeanUp   time.Duration
	MeanDown time.Duration

	// Congestion episodes: long stretches (tens of minutes to hours)
	// during which the congestion-entry rate is multiplied by a boost
	// factor, producing the sustained high-loss hours of Table 6.
	EpisodeEvery    time.Duration // mean inter-episode gap; 0 disables
	EpisodeMean     time.Duration // mean episode duration
	EpisodeBoostMin float64       // entry-rate multiplier range
	EpisodeBoostMax float64

	// Latency-inflation episodes: periods during which every packet
	// crossing the component is delayed by a large constant (the
	// paper's Cornell pathology: "latencies of up to 1 second", §4.5).
	LatEpisodeEvery time.Duration // 0 disables
	LatEpisodeMean  time.Duration
	LatInflateMin   time.Duration
	LatInflateMax   time.Duration

	// QueueMean is the mean extra queueing delay per packet while the
	// component is congested; JitterMean is the always-present small
	// per-packet jitter.
	QueueMean  time.Duration
	JitterMean time.Duration
}

// Profile collects the tunables of the whole substrate. It exists so
// experiments can perturb the world (ablations: edge share of loss, burst
// lengths, episode pressure) without editing class tables.
type Profile struct {
	// AccessParams maps a host's access class to its access-component
	// parameters.
	AccessParams map[topo.AccessClass]ComponentParams
	// BackboneBase is the parameter set for a generic intra-continental
	// backbone pair.
	BackboneBase ComponentParams
	// BackboneIntl is used when exactly one endpoint is international
	// (trans-oceanic crossing).
	BackboneIntl ComponentParams
	// BackboneFar is used for the longest crossings (e.g. Korea paths,
	// which the paper observes are the lossiest: "about 6% between
	// Korea and a DSL line").
	BackboneFar ComponentParams
	// LossScale multiplies every congestion-entry rate (ablation knob;
	// 1 = calibrated world).
	LossScale float64
	// EdgeShare rescales where loss lives: values > 1 shift burst
	// pressure from backbone components to access components while
	// approximately preserving total loss. 1 = calibrated world.
	EdgeShare float64
	// ForwardingDelay is the processing delay added by each overlay
	// intermediate hop.
	ForwardingDelay time.Duration
	// Global parameterizes the network-wide congestion weather (§2.4's
	// correlated, concurrent failures). Zero EpisodeEvery disables it.
	Global GlobalParams
}

// DefaultProfile returns the calibrated substrate profile. The parameters
// were tuned so a simulated campaign reproduces the paper's headline
// statistics (the target bands are asserted in calib_test.go): direct loss ≈0.4%,
// CLP(back-to-back) ≈70%, CLP(via random) ≈60%, 80% of paths under 1%
// loss, occasional >10%-loss hours, mean direct one-way latency ≈54 ms.
func DefaultProfile() *Profile {
	// Burst shape shared by all classes. Burst durations are
	// hyperexponential: a dominant ~15 ms transient mode (queue
	// overflow) and a rare multi-second sustained mode. Because packets
	// sample bursts length-biased, the time shares matter: short bursts
	// carry ~25% of congested time, long bursts ~75%. That makes
	// P(burst persists Δ) fall from 1 at Δ=0 to ~0.88 at 10 ms, ~0.81
	// at 20 ms and ~0.75 at 40–60 ms — matching the paper's observation
	// that 10–20 ms of spacing (or the ~tens-of-ms longer indirect
	// path) bridges only part of the gap between back-to-back CLP and
	// independence (§4.4).
	const (
		shortBurst  = 15 * time.Millisecond
		longBurst   = 2500 * time.Millisecond
		shortWeight = 0.98
	)
	burst := func(meanGood time.Duration, dropLo, dropHi float64,
		up, down time.Duration) ComponentParams {
		return ComponentParams{
			MeanGood:     meanGood,
			MeanBadShort: shortBurst,
			MeanBadLong:  longBurst,
			ShortWeight:  shortWeight,
			DropProbMin:  dropLo,
			DropProbMax:  dropHi,
			MeanUp:       up,
			MeanDown:     down,
			QueueMean:    3 * time.Millisecond,
			JitterMean:   300 * time.Microsecond,
		}
	}

	p := &Profile{
		AccessParams:    make(map[topo.AccessClass]ComponentParams),
		LossScale:       1,
		EdgeShare:       1,
		ForwardingDelay: 400 * time.Microsecond,
		Global:          DefaultGlobalParams(),
	}

	// Mean burst length ≈ 0.98*15ms + 0.02*2.5s ≈ 60 ms. Stationary
	// congested fraction π = meanBad/(meanGood+meanBad); component loss
	// contribution ≈ π * E[severity].
	//
	// Access classes (loss contribution targets in parentheses):
	bg := burst(360*time.Second, 0.50, 0.88, 90*24*time.Hour, 3*time.Minute) // (~0.02%)
	bg.EpisodeEvery = 8 * 24 * time.Hour
	bg.EpisodeMean = 40 * time.Minute
	bg.EpisodeBoostMin, bg.EpisodeBoostMax = 20, 120
	p.AccessParams[topo.AccessBackboneGrade] = bg

	ent := burst(115*time.Second, 0.50, 0.88, 60*24*time.Hour, 4*time.Minute) // (~0.06%)
	ent.EpisodeEvery = 5 * 24 * time.Hour
	ent.EpisodeMean = 45 * time.Minute
	ent.EpisodeBoostMin, ent.EpisodeBoostMax = 20, 150
	p.AccessParams[topo.AccessEnterprise] = ent

	sml := burst(48*time.Second, 0.52, 0.90, 40*24*time.Hour, 5*time.Minute) // (~0.16%)
	sml.EpisodeEvery = 3 * 24 * time.Hour
	sml.EpisodeMean = 50 * time.Minute
	sml.EpisodeBoostMin, sml.EpisodeBoostMax = 20, 200
	p.AccessParams[topo.AccessSmallISP] = sml

	bb := burst(12500*time.Millisecond, 0.55, 0.95, 20*24*time.Hour, 8*time.Minute) // (~0.65%)
	bb.EpisodeEvery = 36 * time.Hour
	bb.EpisodeMean = time.Hour
	bb.EpisodeBoostMin, bb.EpisodeBoostMax = 10, 60
	bb.QueueMean = 6 * time.Millisecond
	p.AccessParams[topo.AccessBroadband] = bb

	// Backbone pairs. These are per-pair, so their bursts are the
	// "avoidable" losses that reactive routing and random intermediates
	// dodge; access bursts are the shared, unavoidable remainder.
	p.BackboneBase = burst(280*time.Second, 0.50, 0.88, 60*24*time.Hour, 4*time.Minute) // (~0.045%)
	p.BackboneBase.EpisodeEvery = 5 * 24 * time.Hour
	p.BackboneBase.EpisodeMean = time.Hour
	p.BackboneBase.EpisodeBoostMin, p.BackboneBase.EpisodeBoostMax = 30, 250
	p.BackboneBase.LatEpisodeEvery = 9 * 24 * time.Hour
	p.BackboneBase.LatEpisodeMean = 5 * time.Hour
	p.BackboneBase.LatInflateMin = 60 * time.Millisecond
	p.BackboneBase.LatInflateMax = time.Second

	p.BackboneIntl = burst(90*time.Second, 0.52, 0.90, 45*24*time.Hour, 6*time.Minute) // (~0.14%)
	p.BackboneIntl.EpisodeEvery = 3 * 24 * time.Hour
	p.BackboneIntl.EpisodeMean = 80 * time.Minute
	p.BackboneIntl.EpisodeBoostMin, p.BackboneIntl.EpisodeBoostMax = 30, 250
	p.BackboneIntl.LatEpisodeEvery = 9 * 24 * time.Hour
	p.BackboneIntl.LatEpisodeMean = 5 * time.Hour
	p.BackboneIntl.LatInflateMin = 80 * time.Millisecond
	p.BackboneIntl.LatInflateMax = time.Second

	p.BackboneFar = burst(28*time.Second, 0.55, 0.95, 30*24*time.Hour, 8*time.Minute) // (~0.45%)
	p.BackboneFar.EpisodeEvery = 2 * 24 * time.Hour
	p.BackboneFar.EpisodeMean = 100 * time.Minute
	p.BackboneFar.EpisodeBoostMin, p.BackboneFar.EpisodeBoostMax = 20, 150
	p.BackboneFar.LatEpisodeEvery = 7 * 24 * time.Hour
	p.BackboneFar.LatEpisodeMean = 6 * time.Hour
	p.BackboneFar.LatInflateMin = 100 * time.Millisecond
	p.BackboneFar.LatInflateMax = time.Second

	return p
}

// effectiveMeanGood applies the profile-level knobs to a component's
// uncongested-period mean. Smaller MeanGood ⇒ more bursts ⇒ more loss.
func (p *Profile) effectiveMeanGood(class ComponentClass, mg time.Duration) time.Duration {
	scale := 1.0
	if p.LossScale > 0 {
		scale /= p.LossScale
	}
	if p.EdgeShare > 0 && p.EdgeShare != 1 {
		// EdgeShare > 1 moves loss toward access components: access
		// bursts become more frequent, backbone bursts rarer.
		if class == ClassAccess {
			scale /= p.EdgeShare
		} else {
			scale *= p.EdgeShare
		}
	}
	d := time.Duration(float64(mg) * scale)
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}
