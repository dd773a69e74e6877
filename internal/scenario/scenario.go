// Package scenario turns declarative failure scripts into timed fault
// actions for the simulated substrate. A Spec names what breaks and
// when — scheduled component outages, correlated failure storms, link
// flapping, maintenance windows — in span-relative terms, so one script
// applies to campaigns of any virtual length. Compile expands a Spec
// deterministically: every random choice (storm membership, onset
// stagger, outage length) comes from a SplitMix64 stream derived from
// the caller's seed, so the same spec, mesh size, span, and seed always
// yield the same action list regardless of where or when it runs.
//
// The package is deliberately oblivious to the simulator: actions name
// components abstractly (an access complex by host index, a backbone
// segment by host pair) and the campaign layer applies them through
// netsim's fault-injection hooks. That keeps the dependency arrow
// pointing one way — core imports scenario, never the reverse.
package scenario

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Target selects the class of component an action hits.
type Target uint8

const (
	// Access targets a host's access complex (kills every path through
	// the host).
	Access Target = iota
	// Backbone targets the segment between a host pair (kills the
	// direct path only; overlay detours survive).
	Backbone
)

// Kind is the fault an action injects.
type Kind uint8

const (
	// Outage forces the component down for the action's duration.
	Outage Kind = iota
	// Congestion forces a loss burst with the action's severity.
	Congestion
)

// Action is one compiled fault: at virtual offset At from campaign
// start, the targeted component suffers Kind for Duration. Host/Peer
// index into the campaign's testbed (Compile reduces them modulo the
// mesh size, so span-relative presets apply to any testbed).
type Action struct {
	At       time.Duration
	Target   Target
	Host     int
	Peer     int // backbone far endpoint; unused for Access
	Kind     Kind
	Duration time.Duration
	Severity float64 // drop probability; Congestion only
}

// OutageEvent schedules one deterministic component outage.
type OutageEvent struct {
	// Start is the onset as a fraction of the campaign span, in [0, 1).
	Start float64
	// Duration is the outage length (absolute virtual time).
	Duration time.Duration
	Target   Target
	Host     int
	Peer     int
}

// Storm is a correlated failure burst: Count access complexes chosen by
// seed go down with onsets staggered across Spread and per-component
// downtimes drawn from [MinDown, MaxDown] — the paper's shared-fate
// failures (one upstream fault taking several sites with it).
type Storm struct {
	Start            float64
	Spread           time.Duration
	Count            int
	MinDown, MaxDown time.Duration
}

// Flap cycles a component down and up: every Period from Start to End
// (fractions of the span), the target drops for Down — the classic
// flapping link that route dampening was invented for.
type Flap struct {
	Start, End float64
	Period     time.Duration
	Down       time.Duration
	Target     Target
	Host       int
	Peer       int
}

// Window is a maintenance window on one host's access complex: a
// Drain-long forced congestion burst (traffic draining away), the
// outage proper, then a Drain-long restore burst as sessions return.
type Window struct {
	Start    float64
	Duration time.Duration
	Host     int
	// Drain is the congestion ramp on each side of the outage; 0 skips
	// the ramps.
	Drain time.Duration
	// DrainSeverity is the ramp's drop probability (default 0.3 when 0).
	DrainSeverity float64
}

// Spec is one failure script. The zero Spec is valid and compiles to no
// actions.
type Spec struct {
	Name    string
	Outages []OutageEvent
	Storms  []Storm
	Flaps   []Flap
	Windows []Window
}

// Validate checks the spec's internal consistency (fractions in range,
// positive durations and counts).
func (s *Spec) Validate() error {
	frac := func(what string, f float64) error {
		if f < 0 || f >= 1 {
			return fmt.Errorf("scenario %s: %s start %g outside [0, 1)", s.Name, what, f)
		}
		return nil
	}
	for i, o := range s.Outages {
		if err := frac(fmt.Sprintf("outage %d", i), o.Start); err != nil {
			return err
		}
		if o.Duration <= 0 {
			return fmt.Errorf("scenario %s: outage %d has non-positive duration", s.Name, i)
		}
	}
	for i, st := range s.Storms {
		if err := frac(fmt.Sprintf("storm %d", i), st.Start); err != nil {
			return err
		}
		if st.Count < 1 {
			return fmt.Errorf("scenario %s: storm %d hits %d components", s.Name, i, st.Count)
		}
		if st.MinDown <= 0 || st.MaxDown < st.MinDown {
			return fmt.Errorf("scenario %s: storm %d downtime range [%v, %v] invalid", s.Name, i, st.MinDown, st.MaxDown)
		}
		if st.Spread < 0 {
			return fmt.Errorf("scenario %s: storm %d has negative spread", s.Name, i)
		}
	}
	for i, f := range s.Flaps {
		if err := frac(fmt.Sprintf("flap %d", i), f.Start); err != nil {
			return err
		}
		if f.End <= f.Start || f.End > 1 {
			return fmt.Errorf("scenario %s: flap %d window [%g, %g] invalid", s.Name, i, f.Start, f.End)
		}
		if f.Period <= 0 || f.Down <= 0 || f.Down >= f.Period {
			return fmt.Errorf("scenario %s: flap %d needs 0 < down < period", s.Name, i)
		}
	}
	for i, w := range s.Windows {
		if err := frac(fmt.Sprintf("window %d", i), w.Start); err != nil {
			return err
		}
		if w.Duration <= 0 {
			return fmt.Errorf("scenario %s: window %d has non-positive duration", s.Name, i)
		}
		if w.Drain < 0 || w.DrainSeverity < 0 || w.DrainSeverity >= 1 {
			return fmt.Errorf("scenario %s: window %d drain invalid", s.Name, i)
		}
	}
	return nil
}

// rng is a self-contained SplitMix64 stream: scenario expansion must
// never consume draws from the campaign's own generators (that is what
// keeps every scenario-off golden digest byte-identical), so it carries
// its own.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) between(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(r.float64()*float64(hi-lo))
}

// Compile expands the spec over a mesh of hosts and a campaign of the
// given virtual span, appending the resulting actions to dst (pass a
// retained slice to reuse its storage across cells). Actions are
// returned sorted by onset, ties broken by target coordinates, so the
// expansion order is part of the deterministic contract. Host indices
// are reduced modulo hosts; a backbone action whose endpoints collide
// after reduction is dropped.
func Compile(spec *Spec, hosts int, span time.Duration, seed uint64, dst []Action) ([]Action, error) {
	if hosts < 2 {
		return dst, errors.New("scenario: need at least 2 hosts")
	}
	if span <= 0 {
		return dst, errors.New("scenario: non-positive campaign span")
	}
	if err := spec.Validate(); err != nil {
		return dst, err
	}
	out := dst[:0]
	mod := func(h int) int {
		h %= hosts
		if h < 0 {
			h += hosts
		}
		return h
	}
	at := func(frac float64) time.Duration {
		return time.Duration(frac * float64(span))
	}
	addTargeted := func(a Action) {
		a.Host = mod(a.Host)
		if a.Target == Backbone {
			a.Peer = mod(a.Peer)
			if a.Peer == a.Host {
				return
			}
			// Canonical endpoint order keeps sorting deterministic.
			if a.Peer < a.Host {
				a.Host, a.Peer = a.Peer, a.Host
			}
		} else {
			a.Peer = 0
		}
		out = append(out, a)
	}

	r := &rng{s: seed ^ 0x5CE9A210F1A7BEEF}
	for _, o := range spec.Outages {
		addTargeted(Action{
			At: at(o.Start), Target: o.Target, Host: o.Host, Peer: o.Peer,
			Kind: Outage, Duration: o.Duration,
		})
	}
	for _, st := range spec.Storms {
		count := st.Count
		if count > hosts {
			count = hosts
		}
		// Partial Fisher–Yates over the host indices picks the storm's
		// victims without replacement.
		perm := make([]int, hosts)
		for i := range perm {
			perm[i] = i
		}
		for k := 0; k < count; k++ {
			j := k + r.intn(hosts-k)
			perm[k], perm[j] = perm[j], perm[k]
			onset := at(st.Start) + r.between(0, st.Spread)
			addTargeted(Action{
				At: onset, Target: Access, Host: perm[k],
				Kind: Outage, Duration: r.between(st.MinDown, st.MaxDown),
			})
		}
	}
	for _, f := range spec.Flaps {
		end := at(f.End)
		for t := at(f.Start); t < end; t += f.Period {
			addTargeted(Action{
				At: t, Target: f.Target, Host: f.Host, Peer: f.Peer,
				Kind: Outage, Duration: f.Down,
			})
		}
	}
	for _, w := range spec.Windows {
		sev := w.DrainSeverity
		if sev == 0 {
			sev = 0.3
		}
		start := at(w.Start)
		if w.Drain > 0 {
			addTargeted(Action{
				At: start, Target: Access, Host: w.Host,
				Kind: Congestion, Duration: w.Drain, Severity: sev,
			})
		}
		addTargeted(Action{
			At: start + w.Drain, Target: Access, Host: w.Host,
			Kind: Outage, Duration: w.Duration,
		})
		if w.Drain > 0 {
			addTargeted(Action{
				At: start + w.Drain + w.Duration, Target: Access, Host: w.Host,
				Kind: Congestion, Duration: w.Drain, Severity: sev,
			})
		}
	}

	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		return a.Kind < b.Kind
	})
	return out, nil
}
