package main

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/topo"
)

// The unit-cost probes: each replays N calls of one layer's public
// function on the workload's own world (testbed, method set, policy,
// seed) and reports the cost per call. They run after the traced
// repetitions, on worlds built here, so they never perturb a campaign.

// unitCalls is the replay count behind every *_ns metric.
const unitCalls = 200_000

// worldOf rebuilds a cell's testbed and method set the way core does
// from its Config.
func worldOf(cfg core.Config) (*topo.Testbed, []route.Method) {
	var tb *topo.Testbed
	switch {
	case cfg.Nodes > 0:
		tb = topo.Synthetic(cfg.Nodes)
	case cfg.Dataset == core.RON2003:
		tb = topo.RON2003()
	default:
		tb = topo.RON2002()
	}
	methods := cfg.Methods
	if methods == nil {
		switch cfg.Dataset {
		case core.RONwide:
			methods = route.RONwideMethods()
		case core.RONnarrow:
			methods = route.RONnarrowMethods()
		default:
			methods = route.RON2003Methods()
		}
	}
	return tb, methods
}

// timeMedian runs fn `runs` times and returns the median duration.
func timeMedian(runs int, fn func()) time.Duration {
	d := make([]float64, runs)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = time.Since(t0).Seconds()
	}
	return time.Duration(median(d) * float64(time.Second))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// perCallNS times n calls of fn(i) and returns nanoseconds per call.
func perCallNS(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// linkWalk enumerates the directed links a campaign under cfg probes —
// every ordered pair, or the landmark plan's links — in row-major order.
func linkWalk(n int, plan *route.LandmarkPlan) [][2]int32 {
	var links [][2]int32
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d && (plan == nil || plan.Probes(s, d)) {
				links = append(links, [2]int32{int32(s), int32(d)})
			}
		}
	}
	return links
}

// unitCosts holds the per-call costs loop_residual needs.
type unitCosts struct {
	sendDirectNS, sendIndirectNS, recordNS, observeNS float64
	snapshotIncr                                      time.Duration
}

// probeUnits measures the topo, netsim, route, analysis and scenario
// unit costs on cfg's world and stores them in m. codec also replays
// the aggregator's encode, decode and merge — the persist and
// replica-merge path, which the bigworld workloads never take (and
// which at n=1024 moves a third of a gigabyte per call).
func probeUnits(m map[string]float64, cfg core.Config, codec bool) unitCosts {
	var u unitCosts
	runs := 3
	if cfg.Nodes >= 256 {
		runs = 1 // O(n²) constructors: one shot each is already seconds
	}

	var tb *topo.Testbed
	var methods []route.Method
	m["topo.build_ms"] = ms(timeMedian(runs, func() { tb, methods = worldOf(cfg) }))
	n := tb.N()

	var nw *netsim.Network
	m["netsim.build_ms"] = ms(timeMedian(runs, func() { nw = netsim.New(tb, cfg.Profile, cfg.Seed) }))
	m["netsim.reset_ms"] = ms(timeMedian(runs, func() { nw.Reset(tb, cfg.Profile, cfg.Seed) }))

	var plan *route.LandmarkPlan
	if cfg.Policy == core.PolicyLandmark {
		m["route.plan_build_ms"] = ms(timeMedian(3, func() { plan = route.NewLandmarkPlan(n) }))
	}
	links := linkWalk(n, plan)
	// Virtual time advances so that each link is revisited once per
	// probe interval, as in a campaign.
	step := netsim.FromDuration(cfg.ProbeInterval) / netsim.Time(len(links))
	if step < 1 {
		step = 1
	}

	sel := route.NewSelectorWindow(n, cfg.LossWindow)
	if plan != nil {
		sel.SetPlan(plan)
	}
	m["route.reset_ms"] = ms(timeMedian(runs, func() { sel.Reset(cfg.LossWindow) }))
	if plan != nil {
		sel.SetPlan(plan)
	}
	if cfg.Hysteresis > 0 {
		sel.SetHysteresis(cfg.Hysteresis)
	}

	// One probe interval of real outcomes, recorded so the selector's
	// estimates look like a running campaign's; then the first snapshot
	// is the full rescan.
	outcomes := make([]netsim.Outcome, len(links))
	t := netsim.Time(0)
	for i, l := range links {
		outcomes[i] = nw.SendDirect(t, int(l[0]), int(l[1]))
		t += step
	}
	record := func(i int) {
		k := i % len(links)
		o := outcomes[k]
		sel.Record(int(links[k][0]), int(links[k][1]), !o.Delivered, o.Latency.Duration())
	}
	for i := range links {
		record(i)
	}
	var tables route.Tables
	t0 := time.Now()
	sel.SnapshotInto(&tables)
	m["route.snapshot_full_ms"] = ms(time.Since(t0))
	// Steady state: each refresh follows one more probe interval of
	// records, so every probed link is dirty again.
	incr := make([]float64, 3)
	for r := range incr {
		for i := range links {
			record(i)
		}
		t0 := time.Now()
		sel.SnapshotInto(&tables)
		incr[r] = time.Since(t0).Seconds()
	}
	u.snapshotIncr = time.Duration(median(incr) * float64(time.Second))
	m["route.snapshot_incr_us"] = us(u.snapshotIncr)

	u.sendDirectNS = perCallNS(unitCalls, func(i int) {
		l := links[i%len(links)]
		nw.SendDirect(t, int(l[0]), int(l[1]))
		t += step
	})
	m["netsim.send_direct_ns"] = u.sendDirectNS
	u.sendIndirectNS = perCallNS(unitCalls, func(i int) {
		l := links[i%len(links)]
		via := (int(l[0]) + 1 + i%(n-2)) % n
		if via == int(l[1]) {
			via = (via + 1) % n
		}
		if via == int(l[0]) {
			via = (via + 1) % n
		}
		nw.Send(t, netsim.Indirect(int(l[0]), int(l[1]), via))
		t += step
	})
	m["netsim.send_indirect_ns"] = u.sendIndirectNS
	u.recordNS = perCallNS(unitCalls, record)
	m["route.record_ns"] = u.recordNS
	m["route.bestloss_ns"] = perCallNS(unitCalls/10, func(i int) {
		l := links[(i*7)%len(links)]
		sel.BestLoss(int(l[0]), int(l[1]))
	})
	var choices []route.Choice
	paths := cfg.Workload.Paths
	if paths < 2 {
		paths = 2
	}
	m["route.kbest_ns"] = perCallNS(unitCalls/10, func(i int) {
		l := links[(i*7)%len(links)]
		choices = sel.KBestDisjointAppend(choices[:0], int(l[0]), int(l[1]), paths)
	})

	names := make([]string, len(methods))
	for i, mt := range methods {
		names[i] = mt.Name
	}
	agg := analysis.NewAggregator(names, n)
	observe := func(i int) {
		l := links[(i*13)%len(links)]
		mi := i % len(methods)
		o := outcomes[(i*13)%len(links)]
		agg.Observe(analysis.Observation{
			Method: mi, Src: int(l[0]), Dst: int(l[1]),
			// 0.9 s apart per node on average (§4.1's 0.6–1.2 s gap).
			Time:   int64(i/n) * int64(900*time.Millisecond),
			Copies: methods[mi].Copies(),
			Lost:   [2]bool{!o.Delivered, i%97 == 0},
			Lat:    [2]time.Duration{o.Latency.Duration(), o.Latency.Duration() + time.Millisecond},
		})
	}
	u.observeNS = perCallNS(unitCalls, observe)
	m["analysis.observe_ns"] = u.observeNS
	t0 = time.Now()
	agg.Flush()
	m["analysis.flush_ms"] = ms(time.Since(t0))
	if codec {
		var enc []byte
		m["analysis.encode_ms"] = ms(timeMedian(runs, func() {
			var err error
			if enc, err = agg.AppendBinary(enc[:0]); err != nil {
				panic(err) // a freshly fed aggregator always encodes
			}
		}))
		m["analysis.encode_kb"] = float64(len(enc)) / 1e3
		var dec *analysis.Aggregator
		m["analysis.decode_ms"] = ms(timeMedian(runs, func() {
			var err error
			if dec, err = analysis.UnmarshalAggregator(enc); err != nil {
				panic(err) // bytes this process just encoded
			}
		}))
		m["analysis.merge_ms"] = ms(timeMedian(runs, func() {
			into := analysis.NewAggregator(names, n)
			if err := into.Merge(dec); err != nil {
				panic(err) // same shape by construction
			}
		}))
	}
	m["analysis.reset_ms"] = ms(timeMedian(runs, func() { agg.Reset() }))

	if cfg.Scenario.Enabled() {
		if spec, ok := scenario.Preset(cfg.Scenario.Preset); ok {
			span := time.Duration(cfg.Days * 24 * float64(time.Hour))
			var acts []scenario.Action
			m["scenario.compile_us"] = us(timeMedian(25, func() {
				acts, _ = scenario.Compile(spec, n, span, cfg.Seed, acts)
			}))
		}
	}
	return u
}

// cellCounts is what loop_residual needs from a finished cell; it is
// copied out because an arena-owned Result dies with the next Run.
type cellCounts struct {
	ronProbes, measureProbes int64
	copies                   float64 // mean packets per measurement probe
	refreshes                float64 // table refreshes in the cell
}

func countsOf(res *core.Result) cellCounts {
	c := cellCounts{ronProbes: res.RONProbes, measureProbes: res.MeasureProbes}
	for _, mt := range res.Methods {
		c.copies += float64(mt.Copies())
	}
	c.copies /= float64(len(res.Methods))
	c.refreshes = res.Config.Days * 24 * float64(time.Hour) / float64(res.Config.TableRefresh)
	return c
}

// probeCells measures cold, warm and retained cell times on a fresh
// arena, and the loop residual of the warm cell.
func probeCells(m map[string]float64, cfg core.Config, u unitCosts, warmRuns int) error {
	arena := core.NewArena()
	t0 := time.Now()
	if _, err := arena.Run(cfg); err != nil {
		return err
	}
	m["core.cell_cold_ms"] = ms(time.Since(t0))
	var warm []float64
	var counts cellCounts
	for i := 0; i < warmRuns; i++ {
		c := cfg
		c.Seed += uint64(i) + 1
		t0 = time.Now()
		res, err := arena.Run(c)
		if err != nil {
			return err
		}
		warm = append(warm, time.Since(t0).Seconds())
		counts = countsOf(res)
	}
	m["core.cell_warm_ms"] = median(warm) * 1e3
	t0 = time.Now()
	if _, err := arena.RunRetained(cfg); err != nil {
		return err
	}
	m["core.cell_retained_ms"] = ms(time.Since(t0))
	m["core.loop_residual_pct"] = loopResidualPct(median(warm), counts, u)
	return nil
}

// loopResidualPct is the share of a warm cell's wall that counts × unit
// costs leave unexplained: the event queue, RNG draws and glue between
// the layers. Routing probes cost a direct send and a record; a
// measurement probe sends one packet per copy (costed as an indirect
// send, the dearer kind) and one observation; each table refresh is one
// steady-state snapshot. Unit costs come from tight replay loops, so
// they can overstate a call's cost inside the campaign and push the
// residual below zero.
func loopResidualPct(warmS float64, c cellCounts, u unitCosts) float64 {
	if warmS <= 0 {
		return 0
	}
	explained := float64(c.ronProbes)*(u.sendDirectNS+u.recordNS)*1e-9 +
		float64(c.measureProbes)*(c.copies*u.sendIndirectNS+u.observeNS)*1e-9 +
		c.refreshes*u.snapshotIncr.Seconds()
	return 100 * (warmS - explained) / warmS
}
