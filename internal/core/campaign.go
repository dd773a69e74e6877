package core

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/netsim"
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Result is the outcome of a campaign: the fed aggregator plus run
// metadata. Table/figure accessors live on the aggregator; Result adds
// the paper-specific row compositions.
type Result struct {
	Config  Config
	Testbed *topo.Testbed
	Methods []route.Method
	Agg     *analysis.Aggregator

	// RONProbes counts routing probes sent (§3.1 overhead).
	RONProbes int64
	// MeasureProbes counts §4.1 measurement probes (observations).
	MeasureProbes int64
	// RouteChanges counts table entries that changed across refreshes,
	// a measure of routing dynamism.
	RouteChanges int64
	// MergedReplicas is the number of replicate campaigns summed into
	// this result (0 or 1 for a single campaign). When > 1, Config's
	// Seed is the first replica's and Days is per-replica.
	MergedReplicas int
}

// campaign is the running state of one simulation.
type campaign struct {
	cfg     Config
	tb      *topo.Testbed
	nw      *netsim.Network
	sel     *route.Selector
	plan    *route.LandmarkPlan // nil = full-mesh probing
	agg     *analysis.Aggregator
	rng     *netsim.Source
	methods []route.Method
	queue   eventQueue
	end     netsim.Time

	// tables is a view of the selector's routing tables, current as of
	// the last refresh; the campaign keeps no copy.
	tables *route.Tables

	// probeIvl/refreshIvl are the event recurrence intervals, converted
	// once instead of per scheduled event.
	probeIvl   netsim.Time
	refreshIvl netsim.Time

	// probes is the implicit routing-probe schedule: one phase per
	// ordered pair, recurring every probeIvl. Strict periodicity means
	// these — the bulk of a campaign's events — never touch the event
	// queue; the loop merges the sorted phase wheel with the queue by
	// time (see loop for the tie rule).
	probes probeStream

	// perNodeMethod rotates each node through the method list ("the
	// nodes cycle through the different probe types", §4.1).
	perNodeMethod []int

	// wl is the application-workload slab (streams, shard schedule,
	// per-frame scratch); dormant unless cfg.Workload is enabled.
	wl workloadState

	// sc is the scripted-failure slab (compiled actions, outage
	// watches); dormant unless cfg.Scenario is enabled.
	sc scenarioState

	res *Result
}

// seed schedules the initial events: one routing probe per ordered pair
// (phase-jittered across the probe interval, carried by the implicit
// probe stream), the periodic table refresh, and one measurement probe
// per node.
func (c *campaign) seed() {
	n := c.tb.N()
	interval := c.probeIvl
	// Under the landmark policy only planned links carry probe streams:
	// O(n·√n) of them instead of n(n-1). Both policies draw phases in
	// row-major pair order, so fullmesh cells (plan == nil) keep the
	// exact historical RNG draw order.
	if c.plan != nil {
		c.probes.presize(c.plan.PlannedLinks())
	} else {
		c.probes.presize(n * (n - 1))
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d || (c.plan != nil && !c.plan.Probes(s, d)) {
				continue
			}
			phase := netsim.Time(c.rng.Float64() * float64(interval))
			// Sequence numbers are consumed in the same order the
			// retired engine pushed these events, so ties against
			// queued events resolve identically.
			c.probes.add(phase, int32(s), int32(d), c.queue.takeSeq())
		}
	}
	c.probes.start(interval)
	c.queue.push(event{t: netsim.FromDuration(c.cfg.TableRefresh), kind: evTableRefresh})
	for s := 0; s < n; s++ {
		c.queue.push(event{t: c.measureGap(), kind: evMeasure, a: int32(s)})
		c.perNodeMethod[s] = c.rng.Intn(len(c.methods))
	}
	if c.cfg.Hysteresis > 0 {
		c.sel.SetHysteresis(c.cfg.Hysteresis)
	}
	// Start with empty tables (all direct), as a freshly booted RON
	// would; nothing has moved yet.
	c.sel.Refresh()
	// Workload seeding comes last so its RNG draws and sequence numbers
	// extend — never perturb — the probe/measure seeding above; scenario
	// seeding extends the workload's in turn (and draws no campaign RNG
	// at all).
	if c.cfg.Workload.Enabled() {
		c.seedWorkload()
	}
	if c.cfg.Scenario.Enabled() {
		c.seedScenario()
	}
}

// measureGap draws the §4.1 inter-probe pause.
func (c *campaign) measureGap() netsim.Time {
	lo := float64(c.cfg.MeasureGapMin)
	hi := float64(c.cfg.MeasureGapMax)
	return netsim.Time(c.rng.Uniform(lo, hi))
}

// loop merges the implicit probe stream with the event queue in global
// (t, seq) order until the virtual campaign ends. Probe firings carry
// real sequence numbers drawn from the queue's counter at exactly the
// moments the retired all-in-one-queue engine pushed them (seeding, and
// each prior firing — after any follow-up push, matching the old push
// order inside the probe handler), so the merged order is identical to
// the old engine's for every configuration, including probe intervals
// that collide exactly with follow-up or measurement times.
func (c *campaign) loop() {
	for {
		pt, pSeq, pOK := c.probes.peek()
		if pOK && pt >= c.end {
			pOK = false // stream ended; drain the queue
		}
		qt, qSeq, qOK := c.queue.peek()
		if pOK && (!qOK || pt < qt || (pt == qt && pSeq < qSeq)) {
			a, b := c.probes.pair()
			c.ronProbe(pt, int(a), int(b))
			c.probes.advance(c.queue.takeSeq())
			continue
		}
		if !qOK {
			return
		}
		e := c.queue.pop()
		if e.t < c.end {
			switch e.kind {
			case evRONFollowUp:
				c.ronFollowUp(e.t, int(e.a), int(e.b), e.k)
			case evTableRefresh:
				c.refreshTables()
				c.queue.push(event{
					t:    e.t + c.refreshIvl,
					kind: evTableRefresh,
				})
			case evMeasure:
				c.measure(e.t, int(e.a))
				c.queue.push(event{t: e.t + c.measureGap(), kind: evMeasure, a: e.a})
			case evWorkloadFrame:
				c.workloadFrame(e.t, int(e.a))
				c.queue.push(event{t: e.t + c.wl.interval, kind: evWorkloadFrame, a: e.a})
			case evScenario:
				c.scenarioEvent(e.t, int(e.a), e.k)
			}
		}
	}
}

// ronProbe sends one §3.1 routing probe on the direct virtual link s→d
// and folds the outcome into the selector. A loss triggers the follow-up
// string.
func (c *campaign) ronProbe(t netsim.Time, s, d int) {
	c.res.RONProbes++
	o := c.nw.SendDirect(t, s, d)
	c.sel.Record(s, d, !o.Delivered, o.Latency.Duration())
	if !o.Delivered {
		c.queue.push(event{t: t + netsim.Second, kind: evRONFollowUp,
			a: int32(s), b: int32(d), k: 1})
	}
}

// ronFollowUp sends the k-th of up to four 1s-spaced probes after a loss,
// stopping early on success (§3.1).
func (c *campaign) ronFollowUp(t netsim.Time, s, d int, k uint8) {
	c.res.RONProbes++
	o := c.nw.SendDirect(t, s, d)
	c.sel.Record(s, d, !o.Delivered, o.Latency.Duration())
	if !o.Delivered && k < 4 {
		c.queue.push(event{t: t + netsim.Second, kind: evRONFollowUp,
			a: int32(s), b: int32(d), k: k + 1})
	}
}

// refreshTables brings the routing tables up to date in place and
// tallies the entries that moved.
func (c *campaign) refreshTables() {
	c.res.RouteChanges += c.sel.Refresh()
}

// resolve maps a tactic to a concrete route for src→dst under current
// tables. Rand picks a fresh intermediate per packet.
func (c *campaign) resolve(tac route.Tactic, src, dst int) netsim.Route {
	switch tac {
	case route.Direct:
		return netsim.Direct(src, dst)
	case route.Rand:
		via := c.randVia(src, dst)
		return netsim.Indirect(src, dst, via)
	case route.Lat:
		if via := c.tables.LatVia(src, dst); via >= 0 {
			return netsim.Indirect(src, dst, via)
		}
		return netsim.Direct(src, dst)
	case route.Loss:
		if via := c.tables.LossVia(src, dst); via >= 0 {
			return netsim.Indirect(src, dst, via)
		}
		return netsim.Direct(src, dst)
	default:
		panic(fmt.Sprintf("core: unknown tactic %v", tac))
	}
}

// randVia draws a uniform intermediate distinct from both endpoints.
func (c *campaign) randVia(src, dst int) int {
	n := c.tb.N()
	for {
		v := c.rng.Intn(n)
		if v != src && v != dst {
			return v
		}
	}
}

// measure executes one §4.1 measurement probe from node s: pick the next
// method in the node's rotation, a random destination, send the copies,
// and record the observation.
func (c *campaign) measure(t netsim.Time, s int) {
	m := c.perNodeMethod[s]
	if next := m + 1; next == len(c.methods) {
		c.perNodeMethod[s] = 0
	} else {
		c.perNodeMethod[s] = next
	}
	method := &c.methods[m]

	d := c.rng.Intn(c.tb.N() - 1)
	if d >= s {
		d++
	}

	obs := analysis.Observation{
		Method: m,
		Src:    s,
		Dst:    d,
		Time:   int64(t),
		Copies: method.Copies(),
	}
	var probeID uint64
	if c.cfg.TraceSink != nil {
		// §4.1's 64-bit probe identifier, a coordinate hash of the
		// probe's index rather than a draw, so tracing leaves the RNG
		// stream (and every table) as it is. deriveSeed is a bijection
		// of the index for a fixed seed: ids never collide in a campaign.
		probeID = deriveSeed(c.cfg.Seed, uint64(c.res.MeasureProbes))
	}
	sendAt := t
	for i, tac := range method.Tactics {
		if i == 1 && method.Gap > 0 {
			sendAt = t + netsim.FromDuration(method.Gap)
		}
		r := c.resolve(tac, s, d)
		// The nil-sink check lives at the call sites so the traceless
		// hot path does not evaluate emitTrace's argument list.
		if c.cfg.TraceSink != nil {
			c.emitTrace(trace.KindSend, s, d, probeID, sendAt, m, tac, i, method.Copies(), r.Via)
		}
		o := c.nw.Send(sendAt, r)
		if !o.Delivered {
			obs.Lost[i] = true
			continue
		}
		lat := o.Latency.Duration()
		if c.cfg.roundTrip() {
			lat += c.reverseLatency(sendAt+o.Latency, d, s)
		}
		if c.cfg.TraceSink != nil {
			// The receive is stamped when the measured latency has
			// passed — the response's return for a round-trip campaign —
			// so a replayed trace observes what the campaign did.
			c.emitTrace(trace.KindRecv, d, s, probeID, sendAt+netsim.FromDuration(lat), m, tac, i, method.Copies(), r.Via)
		}
		obs.Lat[i] = lat
	}
	c.res.MeasureProbes++
	c.agg.Observe(obs)
}

// emitTrace forwards one §4.1 log record to the configured sink. Callers
// check TraceSink for nil first.
func (c *campaign) emitTrace(kind trace.Kind, node, peer int, id uint64,
	at netsim.Time, method int, tac route.Tactic, copyIdx, copies, via int) {
	v := trace.NoNode
	if via >= 0 {
		v = uint16(via)
	}
	c.cfg.TraceSink(trace.Record{
		Kind:      kind,
		Node:      uint16(node),
		Peer:      uint16(peer),
		ProbeID:   id,
		Time:      int64(at),
		Method:    uint8(method),
		Tactic:    tac,
		CopyIndex: uint8(copyIdx),
		Copies:    uint8(copies),
		Via:       v,
	})
}

// reverseLatency measures the return leg for round-trip campaigns
// (RONwide logs RTTs, Table 7). Responses travel the direct path; if the
// response is lost — rare — the uncongested base latency stands in so the
// RTT sample is not discarded.
func (c *campaign) reverseLatency(t netsim.Time, from, to int) time.Duration {
	o := c.nw.SendDirect(t, from, to)
	if o.Delivered {
		return o.Latency.Duration()
	}
	return c.nw.BaseLatency(netsim.Direct(from, to)).Duration()
}
