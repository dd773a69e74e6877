package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/netsim"
	"repro/internal/route"
	"repro/internal/scenario"
)

// The scenario layer wires scripted failures — the paper's central
// question, "what happens when X breaks, and does the overlay route
// around it?" — into campaigns as a sweep axis. A ScenarioConfig names
// a scenario preset; at seeding the campaign compiles it into timed
// fault actions (scenario.Compile, seeded from the cell seed so every
// cell replays its exact failure script) and schedules one evScenario
// event per action. Applied outages also open a resilience watch: a
// witness host pair probed every second under both delivery schemes —
// best-path (the overlay's current loss-optimized route) and
// multi-path (direct plus an indirect alternate) — until the underlay
// outage lifts, feeding the aggregator's resilience metric family
// (availability during outages, failure masking, time to recovery).
//
// Disabled scenarios (the default) leave campaigns bit-identical to
// pre-scenario builds: no events, no RNG draws, no packet keys, no
// allocations. Scenario seeding runs strictly after all other seeding
// and scenario.Compile carries its own RNG stream, so enabling a
// scenario never perturbs the probe/measure/workload draw order either.

// ScenarioConfig selects a scripted failure scenario for the campaign.
// The zero value (or Preset "0") disables the layer.
type ScenarioConfig struct {
	// Preset names a built-in failure script (scenario.Names lists
	// them); "" or "0" runs no scenario.
	Preset string
}

// Enabled reports whether a failure scenario runs.
func (s ScenarioConfig) Enabled() bool { return s.Preset != "" && s.Preset != "0" }

// validate checks that the preset exists; the disabled zero value is
// always valid.
func (s ScenarioConfig) validate() error {
	if !s.Enabled() {
		return nil
	}
	if _, ok := scenario.Preset(s.Preset); !ok {
		return fmt.Errorf("core: unknown scenario %q (want 0 for off, or one of: %s)",
			s.Preset, strings.Join(scenario.Names(), ", "))
	}
	return nil
}

// --- scenario axis ---

// scenarioDef sweeps scripted failure scenarios by preset name. The
// value "0" (or empty) is the unlabeled default, no scenario; preset
// names label cells "-sc<name>".
var scenarioDef = AxisDef{
	Name:    "scenario",
	Usage:   "comma-separated failure-scenario presets (0 = none)",
	Default: "0",
	Parse: func(s string) (AxisValue, error) {
		if s == "" || s == "0" {
			return "0", nil
		}
		if _, ok := scenario.Preset(s); !ok {
			return "", fmt.Errorf("unknown scenario %q (want 0 for off, or one of: %s)",
				s, strings.Join(scenario.Names(), ", "))
		}
		return AxisValue(s), nil
	},
	Label: prefixLabel("-sc", "0"),
	Apply: func(v AxisValue, cfg *Config) {
		if v != "0" {
			cfg.Scenario.Preset = string(v)
		}
	},
}

// ScenarioAxis sweeps the scenario axis over preset names.
func ScenarioAxis(values ...string) Axis { return typedAxis(&scenarioDef, values) }

// --- campaign failure driver ---

// scRecoveryInterval is the recovery-probe spacing: once per second per
// active outage, the granularity of the time-to-recovery measurement
// (matching the §3.1 follow-up probe spacing).
const scRecoveryInterval = time.Second

// evScenario sub-kinds, carried in event.k.
const (
	// scApply fires a compiled fault action (event.a indexes actions).
	scApply uint8 = iota
	// scProbe fires a recovery probe for an open outage watch (event.a
	// indexes watches).
	scProbe
)

// outageWatch tracks one injected underlay outage from onset until the
// component recovers: the witness pair probed under both schemes, and
// whether/when each scheme first delivered through the outage.
type outageWatch struct {
	src, dst int32
	onset    netsim.Time
	until    netsim.Time
	masked   [2]bool // indexed by analysis.Resilience* variant
	ttr      [2]netsim.Time
	done     bool
}

// scenarioState is the campaign's scenario slab: the compiled action
// list and the outage watch table, both with storage reused across
// cells. Dormant (never touched) unless cfg.Scenario is enabled.
type scenarioState struct {
	actions []scenario.Action
	watches []outageWatch
	ivl     netsim.Time // recovery-probe interval
}

// seedScenario compiles the configured failure script and schedules one
// event per action. Called at the very end of campaign seeding, so its
// event sequence numbers land strictly after all probe/measure/workload
// seeding; Compile draws from its own RNG stream, so no campaign draws
// are consumed at all.
func (c *campaign) seedScenario() {
	spec := scenario.MustPreset(c.cfg.Scenario.Preset)
	acts, err := scenario.Compile(spec, c.tb.N(), c.end.Duration(), c.cfg.Seed, c.sc.actions[:0])
	if err != nil {
		// validate() vets the preset and every testbed has >= 2 hosts,
		// so compilation cannot fail for a runnable config.
		panic(fmt.Sprintf("core: scenario %s: %v", spec.Name, err))
	}
	c.sc.actions = acts
	c.sc.watches = c.sc.watches[:0]
	c.sc.ivl = netsim.FromDuration(scRecoveryInterval)
	for i := range acts {
		c.queue.push(event{t: netsim.FromDuration(acts[i].At), kind: evScenario,
			a: int32(i), k: scApply})
	}
}

// scenarioEvent dispatches one evScenario firing.
func (c *campaign) scenarioEvent(t netsim.Time, idx int, k uint8) {
	if k == scApply {
		c.applyScenarioAction(t, idx)
		return
	}
	c.recoveryProbe(t, idx)
}

// applyScenarioAction injects one compiled fault through netsim's
// fault-injection hooks. Outages additionally open a resilience watch.
func (c *campaign) applyScenarioAction(t netsim.Time, idx int) {
	act := &c.sc.actions[idx]
	dur := netsim.FromDuration(act.Duration)
	var comp *netsim.Component
	if act.Target == scenario.Backbone {
		comp = c.nw.BackboneComponent(act.Host, act.Peer)
	} else {
		comp = c.nw.AccessComponent(act.Host)
	}
	switch act.Kind {
	case scenario.Outage:
		comp.ForceDown(t, dur)
		c.watchOutage(t, act, dur)
	case scenario.Congestion:
		comp.ForceCongestion(t, dur, act.Severity)
	}
}

// watchOutage opens a resilience watch over an injected outage: counts
// the underlay failure and starts the recovery-probe clock on a witness
// pair the outage affects. A backbone cut is witnessed by its own
// endpoints (the overlay can detour); an access cut by the dead host
// and its index neighbor (nothing can reach through it — the masking
// contrast the paper draws).
func (c *campaign) watchOutage(t netsim.Time, act *scenario.Action, dur netsim.Time) {
	src, dst := act.Host, act.Peer
	if act.Target == scenario.Access {
		src = act.Host
		dst = act.Host + 1
		if dst == c.tb.N() {
			dst = 0
		}
	}
	c.agg.ResilienceOutage()
	c.sc.watches = append(c.sc.watches, outageWatch{
		src: int32(src), dst: int32(dst), onset: t, until: t + dur,
	})
	c.queue.push(event{t: t + c.sc.ivl, kind: evScenario,
		a: int32(len(c.sc.watches) - 1), k: scProbe})
}

// recoveryProbe sends one round of recovery probes for an open watch:
// best-path (the overlay's current loss-optimized route, the same
// resolution application traffic would get) and multi-path (a direct
// copy plus an indirect copy, delivered if either arrives). The first
// delivery under a scheme timestamps its recovery; when the underlay
// outage lifts, the watch closes and reports both outcomes.
func (c *campaign) recoveryProbe(t netsim.Time, wi int) {
	w := &c.sc.watches[wi]
	if t >= w.until {
		c.finishWatch(w)
		return
	}
	src, dst := int(w.src), int(w.dst)

	o := c.nw.Send(t, c.resolve(route.Loss, src, dst))
	c.agg.ResilienceProbe(analysis.ResilienceBestPath, o.Delivered)
	if o.Delivered && !w.masked[analysis.ResilienceBestPath] {
		w.masked[analysis.ResilienceBestPath] = true
		w.ttr[analysis.ResilienceBestPath] = t - w.onset
	}

	od := c.nw.Send(t, netsim.Direct(src, dst))
	via := c.tables.LossVia(src, dst)
	if via < 0 {
		via = c.randVia(src, dst)
	}
	oi := c.nw.Send(t, netsim.Indirect(src, dst, via))
	delivered := od.Delivered || oi.Delivered
	c.agg.ResilienceProbe(analysis.ResilienceMultiPath, delivered)
	if delivered && !w.masked[analysis.ResilienceMultiPath] {
		w.masked[analysis.ResilienceMultiPath] = true
		w.ttr[analysis.ResilienceMultiPath] = t - w.onset
	}

	c.queue.push(event{t: t + c.sc.ivl, kind: evScenario, a: int32(wi), k: scProbe})
}

// finishWatch closes a watch, reporting whether each scheme masked the
// outage and, if so, its time to recovery.
func (c *campaign) finishWatch(w *outageWatch) {
	if w.done {
		return
	}
	w.done = true
	for v := 0; v < 2; v++ {
		c.agg.ResilienceOutcome(v, w.masked[v], w.ttr[v].Duration())
	}
}

// finishScenario closes watches still open when the campaign ends
// (outages spanning the campaign's final moments never see their
// closing probe event fire). A no-op when scenarios are disabled.
func (c *campaign) finishScenario() {
	if !c.cfg.Scenario.Enabled() {
		return
	}
	for i := range c.sc.watches {
		c.finishWatch(&c.sc.watches[i])
	}
}
