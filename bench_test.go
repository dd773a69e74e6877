// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (§4–§5: Tables 5–7, Figures 2–6) and
// measures the hot paths of the implementation. Each BenchmarkTableN /
// BenchmarkFigureN target runs a compressed campaign per iteration and
// logs the regenerated rows or series, so
//
//	go test -bench=Table5 -benchtime=1x -v .
//
// prints the same shape of output the paper reports. Absolute values are
// banded by the acceptance tests in internal/core; the benchmarks focus
// on regeneration and throughput.
package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/fec"
	"repro/internal/netsim"
	"repro/internal/resultstore"
	"repro/internal/route"
	"repro/internal/topo"
)

// benchDays is the virtual campaign length per benchmark iteration: long
// enough for every statistic to populate, short enough that a single
// iteration stays subsecond.
const benchDays = 0.02

func runCampaign(b *testing.B, d core.Dataset, days float64) *core.Result {
	b.Helper()
	cfg := core.DefaultConfig(d, days)
	cfg.Seed = uint64(1)
	res, err := core.NewArena().Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// scaleBenchDays is the virtual length of the overlay-size scaling
// benchmarks. Much shorter than benchDays: a fullmesh n=1024 cell sends
// ~1M routing probes per 15 s virtual interval, so a couple of virtual
// minutes is already a representative slice of the O(n²) regime.
const scaleBenchDays = 0.001

// BenchmarkCampaign is the headline throughput group, reporting virtual
// probes simulated per wall-clock second (measurement + routing probes;
// the campaign's unit of work). "paper" is the historical compressed
// RONnarrow campaign over the 2002 testbed; the n=… curves run the same
// campaign over synthetic overlays of that size, under the full-mesh
// probing default and (−lm) the landmark policy, recording the scaling
// law the big-world work targets; n=2048 runs under the landmark policy
// alone. The sweep engine and the
// month-long-run ambitions of the ROADMAP scale linearly with "paper".
func BenchmarkCampaign(b *testing.B) {
	runBody := func(b *testing.B, cfg core.Config) {
		var res *core.Result
		var err error
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err = core.NewArena().Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		probes := res.MeasureProbes + res.RONProbes
		probesPerSec := float64(probes) * float64(b.N) /
			b.Elapsed().Seconds()
		b.ReportMetric(probesPerSec, "probes/sec")
	}
	b.Run("paper", func(b *testing.B) {
		cfg := core.DefaultConfig(core.RONnarrow, benchDays)
		cfg.Seed = 1
		runBody(b, cfg)
	})
	scale := func(n int, pol core.Policy) {
		name := fmt.Sprintf("n=%d", n)
		if pol == core.PolicyLandmark {
			name += "-lm"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig(core.RONnarrow, scaleBenchDays)
			cfg.Seed = 1
			cfg.Nodes = n
			cfg.Policy = pol
			runBody(b, cfg)
		})
	}
	for _, n := range []int{64, 256, 1024} {
		scale(n, core.PolicyFullMesh)
		scale(n, core.PolicyLandmark)
	}
	// One size past the curve, under the landmark policy only (full mesh
	// there is 4 M probed links): the cell the memory model is for.
	scale(2048, core.PolicyLandmark)
}

// BenchmarkTable5_RON2003 regenerates Table 5's 2003 half: the eight
// method rows with 1lp/2lp/totlp/clp/lat.
func BenchmarkTable5_RON2003(b *testing.B) {
	var res *core.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = runCampaign(b, core.RON2003, benchDays)
	}
	b.Logf("Table 5 (2003)\n%s",
		analysis.RenderTable5(res.Table5Rows(), res.LatencyLabel()))
}

// BenchmarkTable5_RON2002 regenerates Table 5's 2002 half from the
// RONnarrow configuration (17 hosts, the three most promising methods).
func BenchmarkTable5_RON2002(b *testing.B) {
	var res *core.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = runCampaign(b, core.RONnarrow, benchDays)
	}
	b.Logf("Table 5 (2002)\n%s",
		analysis.RenderTable5(res.Table5Rows(), res.LatencyLabel()))
}

// BenchmarkTable6_HighLossHours regenerates Table 6: counts of hour-long
// periods above each loss threshold, per method. Hour windows need a
// longer campaign than the other benches.
func BenchmarkTable6_HighLossHours(b *testing.B) {
	var res *core.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = runCampaign(b, core.RON2003, 0.25)
	}
	b.Logf("Table 6\n%s", analysis.RenderTable6(res.Agg.HighLossHours()))
}

// BenchmarkTable7_RONwide regenerates Table 7: the expanded twelve-method
// set over the 2002 testbed with round-trip latencies.
func BenchmarkTable7_RONwide(b *testing.B) {
	var res *core.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = runCampaign(b, core.RONwide, benchDays)
	}
	b.Logf("Table 7\n%s",
		analysis.RenderTable5(res.Table5Rows(), res.LatencyLabel()))
}

// BenchmarkFigure2_PathLossCDF regenerates Figure 2: the CDF of per-path
// long-term loss rates (2003 vs 2002 testbeds).
func BenchmarkFigure2_PathLossCDF(b *testing.B) {
	var c03, c02 *analysis.CDF
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c03 = runCampaign(b, core.RON2003, benchDays).Figure2(10)
		c02 = runCampaign(b, core.RONnarrow, benchDays).Figure2(10)
	}
	b.Logf("Figure 2\n%s", analysis.RenderCDFOverlay(
		"per-path long-term loss CDF (percent)", 0, 7, 15,
		[]string{"2003 testbed", "2002 testbed"},
		[]*analysis.CDF{c03, c02}))
}

// BenchmarkFigure3_WindowCDF regenerates Figure 3: the CDF of 20-minute
// loss-rate samples per routing method.
func BenchmarkFigure3_WindowCDF(b *testing.B) {
	var res *core.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = runCampaign(b, core.RON2003, 0.1)
	}
	b.Logf("Figure 3\n%s", analysis.RenderCDFOverlay(
		"20-minute loss rate CDF", 0, 1, 11,
		res.Agg.Methods(), res.Figure3()))
}

// BenchmarkFigure4_CLPCDF regenerates Figure 4: the per-path conditional
// loss probability CDF for the two-copy methods.
func BenchmarkFigure4_CLPCDF(b *testing.B) {
	var names []string
	var cdfs []*analysis.CDF
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		names, cdfs = runCampaign(b, core.RON2003, 0.1).Figure4()
	}
	b.Logf("Figure 4\n%s", analysis.RenderCDFOverlay(
		"per-path CLP CDF (percent)", 0, 100, 11, names, cdfs))
}

// BenchmarkFigure5_LatencyCDF regenerates Figure 5: the CDF of per-path
// mean one-way latency for paths over 50 ms, per method.
func BenchmarkFigure5_LatencyCDF(b *testing.B) {
	var res *core.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = runCampaign(b, core.RON2003, benchDays)
	}
	b.Logf("Figure 5\n%s", analysis.RenderCDFOverlay(
		"per-path latency CDF (ms), paths > 50ms", 0, 300, 13,
		res.Agg.Methods(), res.Figure5()))
}

// BenchmarkFigure6_DesignSpace regenerates Figure 6 from the §5.3 cost
// model: the reactive/redundant capacity frontiers and their limits.
func BenchmarkFigure6_DesignSpace(b *testing.B) {
	p := costmodel.Defaults()
	var ds costmodel.DesignSpace
	var err error
	for i := 0; i < b.N; i++ {
		ds, err = p.Space(101)
		if err != nil {
			b.Fatal(err)
		}
	}
	var rows string
	for i := 0; i < len(ds.Reactive); i += 10 {
		rows += fmt.Sprintf("%6.2f %10.4f %10.4f\n",
			ds.Reactive[i].Improvement,
			ds.Reactive[i].DataFraction, ds.Redundant[i].DataFraction)
	}
	b.Logf("Figure 6 (improvement, reactive frac, redundant frac; limits %.2f/%.2f)\n%s",
		ds.ReactiveLimit, ds.RedundantLimit, rows)
}

// BenchmarkFECSpreading regenerates the §5.2 example: a (5,1) code pushed
// through a bursty single path at increasing interleave spans; residual
// loss falls only once the group outlives the bursts.
func BenchmarkFECSpreading(b *testing.B) {
	tb := topo.RON2003()
	code, err := fec.NewCode(5, 1)
	if err != nil {
		b.Fatal(err)
	}
	var report string
	for i := 0; i < b.N; i++ {
		report = ""
		for _, spread := range []time.Duration{0, 200 * time.Millisecond, 2 * time.Second} {
			prof := netsim.DefaultProfile()
			prof.LossScale = 8
			nw := netsim.New(tb, prof, 11)
			raw, post := fecRun(nw, tb, code, spread, 1200)
			report += fmt.Sprintf("spread %-8v raw %5.2f%%  post-FEC %5.2f%%\n",
				spread, raw, post)
		}
	}
	b.Logf("§5.2 FEC spreading\n%s", report)
}

// fecRun sends interleaved (5,1) groups over the MIT→Korea path in global
// time order and reports raw and post-FEC loss percentages.
func fecRun(nw *netsim.Network, tb *topo.Testbed, code *fec.Code,
	spread time.Duration, groups int) (rawPct, postPct float64) {
	r := netsim.Direct(tb.Index("MIT"), tb.Index("Korea"))
	n := code.K() + code.M()
	sched, _ := fec.EvenSpread(n, spread)
	type job struct {
		at    netsim.Time
		group int
	}
	jobs := make([]job, 0, groups*n)
	for g := 0; g < groups; g++ {
		t := netsim.Time(g) * netsim.Time(250*time.Millisecond)
		for i := 0; i < n; i++ {
			jobs = append(jobs, job{t + netsim.FromDuration(sched.Offsets[i]), g})
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].at < jobs[j].at })
	arrived := make([]int, groups)
	var rawLost, postLost int
	for _, j := range jobs {
		if nw.Send(j.at, r).Delivered {
			arrived[j.group]++
		} else {
			rawLost++
		}
	}
	for g := 0; g < groups; g++ {
		if arrived[g] < code.K() {
			postLost += n - arrived[g]
		}
	}
	packets := groups * n
	return 100 * float64(rawLost) / float64(packets),
		100 * float64(postLost) / float64(packets)
}

// benchSweepGrid runs the benchmark grid — eight seed replicas of a
// compressed RONnarrow campaign merged into one set of tables — with
// the given worker count.
func benchSweepGrid(parallel int) (*core.SweepResult, error) {
	s, err := core.NewSweep(core.SweepSpec{
		Datasets: []core.Dataset{core.RONnarrow},
		Days:     benchDays,
		BaseSeed: 1,
		Replicas: 8,
		Parallel: parallel,
	})
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// BenchmarkSweep measures the sweep engine at fixed worker counts over
// one grid: eight seed replicas of a compressed RONnarrow campaign,
// merged into one set of tables. Each worker threads its cells through
// a reusable campaign arena, so serial allocations band the arena's
// cell-turnover cost; every sub-bench reports cells/sec.
func BenchmarkSweep(b *testing.B) {
	for _, bench := range []struct {
		name     string
		parallel int
	}{
		{"serial", 1},
		{"parallel=2", 2},
		{"parallel=4", 4},
	} {
		b.Run(bench.name, func(b *testing.B) {
			var res *core.SweepResult
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = benchSweepGrid(bench.parallel)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(res.Cells))*float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
			merged := res.Groups[0].Merged
			b.Logf("%d cells on %d workers in %.2fs; merged %d measurement probes",
				len(res.Cells), res.Parallel, res.Wall.Seconds(), merged.MeasureProbes)
		})
	}

	// The loss-window band: a small -losswindow 0,25,100 grid, so the
	// NewSelectorWindow path (cells whose selection window departs from
	// the default) is perf-tracked alongside the default-window engine.
	// Serial, so the number bands the per-cell cost, not pool speedup.
	b.Run("losswindow-grid", func(b *testing.B) {
		windows, err := core.NewAxis("losswindow", []core.AxisValue{"0", "25", "100"})
		if err != nil {
			b.Fatal(err)
		}
		var res *core.SweepResult
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := core.NewSweep(core.SweepSpec{
				Datasets: []core.Dataset{core.RONnarrow},
				Days:     benchDays,
				BaseSeed: 1,
				Replicas: 2,
				Axes:     []core.Axis{windows},
				Parallel: 1,
			})
			if err == nil {
				res, err = s.Run()
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		var probes int64
		for gi := range res.Groups {
			probes += res.Groups[gi].Merged.MeasureProbes
		}
		b.Logf("%d cells over windows {default,25,100}; %d measurement probes",
			len(res.Cells), probes)
	})
}

// warmArena returns an arena that has run twelve cells of cfg's shape,
// past its cold first cell and the seed-dependent high-water marks
// (the event heap, CDF runs) the next few seeds raise, as
// TestArenaSecondCellZeroAllocsAcrossSeeds warms. Left in the timed
// loop, the cold cell's allocations would be divided by b.N, which
// depends on machine speed. The warm-up seeds lie above every seed the
// timed loop's cfg.Seed = i+1 reaches.
func warmArena(b *testing.B, cfg core.Config) *core.Arena {
	arena := core.NewArena()
	for k := uint64(0); k < 12; k++ {
		cfg.Seed = 1<<63 + k
		if _, err := arena.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	return arena
}

// BenchmarkSweepTurnover measures cell turnover through one reused
// campaign arena — the per-worker steady state of a sweep: every
// iteration reinitializes the full campaign world (netsim slabs,
// selector rings, aggregator windows, event heap, probe stream) in
// place for a fresh seed and runs the cell. Steady-state allocs/op is
// ~0 (pinned exactly by TestArenaSecondCellZeroAllocs); this bench
// bands the reinitialization + campaign wall-clock as cells/sec.
func BenchmarkSweepTurnover(b *testing.B) {
	cfg := core.DefaultConfig(core.RONnarrow, benchDays)
	arena := warmArena(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		if _, err := arena.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
}

// BenchmarkWorkloadCell is BenchmarkSweepTurnover with the multi-path +
// FEC application workload enabled: every cell additionally seeds the
// stream table, fires periodic frame events, queries k-disjoint paths,
// and accounts both delivery variants. Steady-state allocs/op must stay
// ~0 (pinned by TestArenaWorkloadSecondCellZeroAllocs); the cells/sec
// delta against BenchmarkSweepTurnover is the workload layer's cost.
func BenchmarkWorkloadCell(b *testing.B) {
	cfg := core.DefaultConfig(core.RONnarrow, benchDays)
	cfg.Workload = core.DefaultWorkloadConfig()
	arena := warmArena(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		if _, err := arena.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
}

// --- Ablation benchmarks (one design choice varied at a time) ---

// BenchmarkAblationLossWindow varies the paper's 100-probe selection
// window: short windows react faster but flap; long windows smooth over
// episodes and miss them.
func BenchmarkAblationLossWindow(b *testing.B) {
	for _, w := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			var loss float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.RONnarrow, benchDays)
				cfg.LossWindow = w
				res, err := core.NewArena().Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				loss = res.Agg.Totals(res.Agg.MethodIndex("loss")).TotalLossPct
			}
			b.Logf("loss-optimized totlp with window %d: %.3f%%", w, loss)
		})
	}
}

// BenchmarkAblationProbeInterval varies the §3.1 probing rate (paper:
// 15 s): the reactive benefit decays as probes become stale.
func BenchmarkAblationProbeInterval(b *testing.B) {
	for _, iv := range []time.Duration{5 * time.Second, 15 * time.Second, 60 * time.Second} {
		b.Run(iv.String(), func(b *testing.B) {
			var loss float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.RONnarrow, benchDays)
				cfg.ProbeInterval = iv
				cfg.TableRefresh = iv
				res, err := core.NewArena().Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				loss = res.Agg.Totals(res.Agg.MethodIndex("loss")).TotalLossPct
			}
			b.Logf("loss-optimized totlp at probe interval %v: %.3f%%", iv, loss)
		})
	}
}

// BenchmarkAblationEdgeShare varies where loss lives: shifting it from
// shared access links to per-pair backbones raises path independence and
// therefore mesh routing's benefit — the paper's independence-limit knob.
func BenchmarkAblationEdgeShare(b *testing.B) {
	for _, es := range []float64{0.5, 1, 2} {
		b.Run(fmt.Sprintf("edgeShare=%.1f", es), func(b *testing.B) {
			var clp float64
			for i := 0; i < b.N; i++ {
				prof := netsim.DefaultProfile()
				prof.EdgeShare = es
				cfg := core.DefaultConfig(core.RON2003, benchDays)
				cfg.Profile = prof
				res, err := core.NewArena().Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				clp = res.Agg.Totals(res.Agg.MethodIndex("direct rand")).CondLossPct
			}
			b.Logf("CLP(direct rand) at edge share %.1f: %.1f%%", es, clp)
		})
	}
}

// --- Microbenchmarks of the hot paths ---

// BenchmarkComponentTransit measures the lazy-CTMC evaluation that every
// simulated packet pays per component crossed.
func BenchmarkComponentTransit(b *testing.B) {
	nw := netsim.New(topo.RON2003(), nil, 1)
	c := nw.AccessComponent(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Transit(netsim.Time(i)*netsim.Millisecond, uint64(i), 0)
	}
}

// BenchmarkNetworkSendDirect measures a full direct-path packet (three
// component crossings).
func BenchmarkNetworkSendDirect(b *testing.B) {
	nw := netsim.New(topo.RON2003(), nil, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// (i+7)%30 never equals i%30, so the route is always valid.
		nw.Send(netsim.Time(i)*netsim.Millisecond, netsim.Direct(i%30, (i+7)%30))
	}
}

// BenchmarkNetworkReset measures a warm cell's network turnover at big-
// world size: same mesh, next seed. It redraws the n(n−1)/2 inflation
// factors and clears the component index; backbone components are built
// by the sends that follow, not here, and nothing is allocated.
func BenchmarkNetworkReset(b *testing.B) {
	b.Run("n=1024", func(b *testing.B) {
		tb := topo.Synthetic(1024)
		nw := netsim.New(tb, nil, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nw.Reset(tb, nil, uint64(i)+2)
		}
	})
}

// BenchmarkNetworkSendIndirect measures a one-intermediate packet (six
// component crossings).
func BenchmarkNetworkSendIndirect(b *testing.B) {
	nw := netsim.New(topo.RON2003(), nil, 1)
	r := netsim.Indirect(0, 1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Send(netsim.Time(i)*netsim.Millisecond, r)
	}
}

// BenchmarkSelectorBestLoss measures one RON path selection over 30 nodes
// (28 candidate intermediates).
func BenchmarkSelectorBestLoss(b *testing.B) {
	sel := route.NewSelectorWindow(30, 0)
	for s := 0; s < 30; s++ {
		for d := 0; d < 30; d++ {
			if s != d {
				sel.Record(s, d, s%7 == 0, time.Duration(10+s+d)*time.Millisecond)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % 30
		dst := (src + 1 + i%29) % 30 // offset in [1,29]: never src
		sel.BestLoss(src, dst)
	}
}

// BenchmarkSelectorRecord measures one routing-probe outcome folded into
// a full-mesh n=512 selector, the links visited as the campaign's probe
// wheel visits them: every ordered pair once per era, in phase order —
// a fixed random permutation, not row order. At 262 144 links the slab
// is far larger than any cache, so each Record misses on the estimate's
// line; what it costs is how many lines a link spans.
//
// n=512-w200 is the same at a 200-probe window, past the 128 outcomes a
// record holds itself, and times only eras whose outcome lands in ring
// positions 128–199: each timed Record also writes a word of the
// selector's spill slab. The selector and its era count persist across
// the benchmark's rounds, and the eras in between are recorded with the
// timer stopped.
func BenchmarkSelectorRecord(b *testing.B) {
	const n = 512
	pairs := make([][2]int32, 0, n*(n-1))
	for s := int32(0); s < n; s++ {
		for d := int32(0); d < n; d++ {
			if s != d {
				pairs = append(pairs, [2]int32{s, d})
			}
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	b.Run("n=512", func(b *testing.B) {
		sel := route.NewSelectorWindow(n, 0)
		era := func(probes int) {
			for i, p := range pairs[:probes] {
				sel.Record(int(p[0]), int(p[1]), i%16 == 0, time.Duration(10+i%64)*time.Millisecond)
			}
		}
		// One era carves the slab and fills the touched lists.
		era(len(pairs))
		b.ReportAllocs()
		b.ResetTimer()
		for left := b.N; left > 0; left -= len(pairs) {
			era(min(left, len(pairs)))
		}
	})
	const window, inline = 200, 128
	var spill struct {
		sel       *route.Selector
		era, next int // completed eras; the next pair of the current one
	}
	b.Run("n=512-w200", func(b *testing.B) {
		if spill.sel == nil {
			spill.sel = route.NewSelectorWindow(n, window)
		}
		sel := spill.sel
		record := func(probes int) {
			for i, p := range pairs[spill.next : spill.next+probes] {
				sel.Record(int(p[0]), int(p[1]), (spill.next+i)%16 == 0, time.Duration(10+i%64)*time.Millisecond)
			}
			if spill.next += probes; spill.next == len(pairs) {
				spill.next = 0
				spill.era++
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for left := b.N; left > 0; {
			if spill.next == 0 && spill.era%window < inline {
				b.StopTimer()
				for spill.era%window < inline {
					record(len(pairs))
				}
				b.StartTimer()
			}
			k := min(left, len(pairs)-spill.next)
			record(k)
			left -= k
		}
	})
}

// BenchmarkSelectorSnapshot measures the full 870-pair routing-table
// recomputation the campaign performs every table-refresh interval,
// written into a reused Tables exactly as the campaign does.
// SetHysteresis(0) invalidates the metrics cache without allocating, so
// every iteration is a full rescan; without it, no link is touched after
// the first and Refresh would return at once, leaving only the copy.
func BenchmarkSelectorSnapshot(b *testing.B) {
	sel := route.NewSelectorWindow(30, 0)
	for s := 0; s < 30; s++ {
		for d := 0; d < 30; d++ {
			if s != d {
				sel.Record(s, d, (s+d)%13 == 0, time.Duration(10+s+d)*time.Millisecond)
			}
		}
	}
	var tables route.Tables
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.SetHysteresis(0)
		sel.SnapshotInto(&tables)
	}
}

// BenchmarkSelectorRefresh measures one full routing-table rescan of a
// big world: n=1024 under the landmark plan (the bigworld_landmark
// cell's refresh, n²·√n) and n=512 full mesh (bigworld_mesh's, n³);
// n=1024-lm-h is the landmark case damped at a 0.25 margin, whose pairs
// also score their held paths. Every probed link holds a few recorded
// probes — some lossy, one in 200 dead — so the loss scan runs for the
// lossy direct paths and the latency scan meets sentinels. As in BenchmarkSelectorSnapshot,
// SetHysteresis invalidates the metrics cache without allocating, so
// every iteration re-derives every link's metrics and every pair.
func BenchmarkSelectorRefresh(b *testing.B) {
	for _, bc := range []struct {
		name     string
		n        int
		landmark bool
		margin   float64
	}{{"n=1024-lm", 1024, true, 0}, {"n=1024-lm-h", 1024, true, 0.25}, {"n=512", 512, false, 0}} {
		b.Run(bc.name, func(b *testing.B) {
			sel := route.NewSelectorWindow(bc.n, 0)
			var plan *route.LandmarkPlan
			if bc.landmark {
				plan = route.NewLandmarkPlan(bc.n)
				sel.SetPlan(plan)
			}
			sel.SetHysteresis(bc.margin)
			rng := rand.New(rand.NewSource(1))
			for s := 0; s < bc.n; s++ {
				for d := 0; d < bc.n; d++ {
					if s == d || (plan != nil && !plan.Probes(s, d)) {
						continue
					}
					for k := 0; k < 4; k++ {
						sel.Record(s, d, rng.Intn(50) == 0, time.Duration(10+rng.Intn(200))*time.Millisecond)
					}
					if rng.Intn(200) == 0 {
						for k := 0; k < route.DefaultDeadThreshold; k++ {
							sel.Record(s, d, true, 0)
						}
					}
				}
			}
			sel.Refresh()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel.SetHysteresis(bc.margin)
				sel.Refresh()
			}
		})
	}
}

// BenchmarkRSEncode measures (5,1) parity generation over 1 kB shards.
func BenchmarkRSEncode(b *testing.B) {
	code, err := fec.NewCode(5, 1)
	if err != nil {
		b.Fatal(err)
	}
	data := make([][]byte, 5)
	for i := range data {
		data[i] = make([]byte, 1024)
		for j := range data[i] {
			data[i][j] = byte(i * j)
		}
	}
	b.SetBytes(5 * 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSReconstruct measures repairing one erased shard.
func BenchmarkRSReconstruct(b *testing.B) {
	code, err := fec.NewCode(5, 1)
	if err != nil {
		b.Fatal(err)
	}
	data := make([][]byte, 5)
	for i := range data {
		data[i] = make([]byte, 1024)
		for j := range data[i] {
			data[i][j] = byte(i + j)
		}
	}
	full, err := code.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(5 * 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := make([][]byte, len(full))
		copy(shards, full)
		shards[i%5] = nil
		if err := code.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregatorObserve measures the streaming statistics fold that
// every simulated probe passes through.
func BenchmarkAggregatorObserve(b *testing.B) {
	agg := analysis.NewAggregator([]string{"direct", "direct rand"}, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % 29
		agg.Observe(analysis.Observation{
			Method: i % 2,
			Src:    src,
			Dst:    src + 1,
			Time:   int64(i) * int64(time.Second),
			Copies: 1 + i%2,
			Lost:   [2]bool{i%97 == 0, i%53 == 0},
			Lat:    [2]time.Duration{50 * time.Millisecond, 60 * time.Millisecond},
		})
	}
}

// benchStoreRow is a representative store row: the metric width of a
// workload+resilience cell.
func benchStoreRow() *resultstore.Row {
	row := &resultstore.Row{
		Kind: resultstore.KindCell, Name: "ronnarrow-scoutage-s2-r00",
		Group: "ronnarrow-scoutage-s2", Dataset: "ronnarrow",
		Replicas: 1, Hosts: 12, Seed: 42, Days: benchDays,
		RONProbes: 2_000_000, MeasureProbes: 60_000, RouteChanges: 400,
		Snapshot: "cells/ronnarrow-scoutage-s2-r00.snap",
		Axes: []resultstore.AxisKV{
			{Key: "scenario", Value: "outage"}, {Key: "streams", Value: "2"},
		},
	}
	methods := []string{"direct", "loss", "direct rand", "lat loss"}
	for _, m := range methods {
		for _, f := range []string{"order", "probes", "1lp", "2lp", "totlp", "clp", "latns", "pair"} {
			row.Metrics = append(row.Metrics, resultstore.Metric{Col: "t5." + m + "." + f, Val: 0.01})
		}
		for _, f := range []string{"order", "periods", "gt0.1", "gt0.2", "gt0.3"} {
			row.Metrics = append(row.Metrics, resultstore.Metric{Col: "t6." + m + "." + f, Val: 3})
		}
		for _, f := range []string{"p50", "p95", "mean"} {
			row.Metrics = append(row.Metrics, resultstore.Metric{Col: "win20." + m + "." + f, Val: 0.002})
		}
	}
	for _, c := range []string{"t5.rtt", "t6.worsthour", "wl.k", "wl.m", "wl.paths",
		"wl.reconfail", "wl.overhead", "rs.outages"} {
		row.Metrics = append(row.Metrics, resultstore.Metric{Col: c, Val: 1})
	}
	for _, v := range []string{"bp", "mp"} {
		for _, f := range []string{"frames", "losspct", "shardpct", "latns", "p95latms", "strm50pct"} {
			row.Metrics = append(row.Metrics, resultstore.Metric{Col: "wl." + v + "." + f, Val: 2.5})
		}
		for _, f := range []string{"probes", "availpct", "maskedpct", "ttrns", "p95ttrs"} {
			row.Metrics = append(row.Metrics, resultstore.Metric{Col: "rs." + v + "." + f, Val: 97.5})
		}
	}
	return row
}

// BenchmarkStoreAppend measures the result store's steady-state append:
// a representative row written to an already-warm segment whose column
// dictionary knows every column. One framed write(2), zero allocations —
// the property benchguard gates, since the coordinator appends on its
// completion path.
func BenchmarkStoreAppend(b *testing.B) {
	st, err := resultstore.Open(resultstore.SegmentPath(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	row := benchStoreRow()
	if err := st.Append(row); err != nil { // warm the dictionary and buffer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Append(row); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStoreRows is the synthetic segment's size: 400 grid points of 24
// replica cells and one merged row.
const benchStoreRows = 10_000

// benchStoreSegment writes the synthetic segment the open and query
// benches read: benchStoreRow's columns on every row, scenario ×
// streams axes, one metric value per row index.
func benchStoreSegment(b testing.TB) string {
	b.Helper()
	path := resultstore.SegmentPath(b.TempDir())
	st, err := resultstore.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	row := benchStoreRow()
	scenarios := []string{"0", "outage", "storm", "flap"}
	streams := []string{"1", "2", "4"}
	for i := 0; i < benchStoreRows; i++ {
		g, rep := i/25, i%25
		row.Group = fmt.Sprintf("ronnarrow-sc%s-s%s-b%03d", scenarios[g%4], streams[g/4%3], g/12)
		row.Axes[0].Value, row.Axes[1].Value = scenarios[g%4], streams[g/4%3]
		if rep == 24 {
			row.Kind, row.Name, row.Snapshot, row.Replica = resultstore.KindGroup, row.Group, "", -1
		} else {
			row.Kind, row.Name, row.Replica = resultstore.KindCell, fmt.Sprintf("%s-r%02d", row.Group, rep), int32(rep)
			row.Snapshot = core.CellSnapshotRelPath(row.Name)
		}
		for c := range row.Metrics {
			row.Metrics[c].Val = float64((i*31+c*17)%1009) / 1009
		}
		if err := st.Append(row); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkStoreOpen measures what `ronreport -store` pays before its
// first query: ReadSegment (scan, CRC, decode) plus Unique over the
// 10⁴-row synthetic segment. Warm: the file is in the page cache (just
// written). Cold: every iteration decodes into a fresh Segment; the
// previous one is garbage. B/row is the heap the decoded segment and
// its Unique slice hold once garbage is collected.
func BenchmarkStoreOpen(b *testing.B) {
	path := benchStoreSegment(b)
	var rows []*resultstore.Row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg, err := resultstore.ReadSegment(path)
		if err != nil {
			b.Fatal(err)
		}
		rows = seg.Unique()
	}
	b.StopTimer()
	if len(rows) != benchStoreRows {
		b.Fatalf("opened %d unique rows, want %d", len(rows), benchStoreRows)
	}
	b.ReportMetric(heapPerRow(rows), "B/row")
}

// heapPerRow is the heap the synthetic segment's opened rows hold once
// garbage is collected, per row: the live heap with rows, less the live
// heap after they are let go. Neither the caller nor this function may
// use rows after the KeepAlive, or the second collection keeps them too.
func heapPerRow(rows []*resultstore.Row) float64 {
	var held, freed runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(rows)
	runtime.GC()
	runtime.ReadMemStats(&freed)
	return float64(int64(held.HeapAlloc)-int64(freed.HeapAlloc)) / benchStoreRows
}

// TestStoreOpenHeapPerRow holds BenchmarkStoreOpen's B/row under a
// bound: a decoded row keeps its metric values in 8 pointer-free bytes
// each and shares its column names with every row of the same layout,
// about 1.2 kB a row on this 86-column segment. A 24-byte
// Metric{Col, Val} per column per row reads 2.6 kB.
func TestStoreOpenHeapPerRow(t *testing.T) {
	const bound = 1600
	seg, err := resultstore.ReadSegment(benchStoreSegment(t))
	if err != nil {
		t.Fatal(err)
	}
	rows := seg.Unique()
	if len(rows) != benchStoreRows {
		t.Fatalf("opened %d unique rows, want %d", len(rows), benchStoreRows)
	}
	seg = nil // only rows may keep the segment alive
	got := heapPerRow(rows)
	t.Logf("an opened row holds %.0f B of heap (bound %d)", got, bound)
	if got > bound {
		t.Fatalf("an opened row holds %.0f B of heap, want at most %d", got, bound)
	}
}

// BenchmarkStoreQuery measures one canned query as cmd/ronreport composes
// it — Select (two literal predicates and a "*"), GroupBy, then
// MetricValues and Quantile per bucket — over the opened synthetic
// segment. Warm: the segment is decoded once outside the timer and every
// iteration reads the same rows; only the query's own results are
// allocated.
func BenchmarkStoreQuery(b *testing.B) {
	seg, err := resultstore.ReadSegment(benchStoreSegment(b))
	if err != nil {
		b.Fatal(err)
	}
	rows := seg.Unique()
	preds, err := resultstore.ParsePredicates("kind=cell,scenario=outage,dataset=*")
	if err != nil {
		b.Fatal(err)
	}
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := resultstore.Select(rows, preds)
		for _, g := range resultstore.GroupBy(sel, "streams") {
			vals := resultstore.MetricValues(g.Rows, "wl.mp.losspct")
			sink += resultstore.Quantile(vals, 0.95)
		}
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("query produced no values")
	}
}

// BenchmarkAblationRedundancy extends 2-redundant mesh routing to R
// copies (direct + R-1 distinct random intermediates). The paper's §5.2
// argument predicts rapidly diminishing returns: once the residual loss
// is dominated by shared edge infrastructure, more "independent" paths
// cannot help — the Independence Limit of Figure 6.
func BenchmarkAblationRedundancy(b *testing.B) {
	tb := topo.RON2003()
	var report string
	for i := 0; i < b.N; i++ {
		nw := netsim.New(tb, nil, 21)
		rng := netsim.NewSource(55)
		n := tb.N()
		report = ""
		const probes = 120000
		lost := make([]int, 5) // lost[r] = effective losses with r copies
		for p := 0; p < probes; p++ {
			t := netsim.Time(p) * 700 * netsim.Microsecond
			src := rng.Intn(n)
			dst := rng.Intn(n - 1)
			if dst >= src {
				dst++
			}
			// Draw three distinct intermediates once so copy sets nest:
			// R=2 uses the first, R=3 the first two, etc.
			var vias [3]int
			for k := 0; k < 3; {
				v := rng.Intn(n)
				if v == src || v == dst || (k > 0 && v == vias[0]) ||
					(k > 1 && v == vias[1]) {
					continue
				}
				vias[k] = v
				k++
			}
			delivered := 0
			if nw.Send(t, netsim.Direct(src, dst)).Delivered {
				delivered = 1
			}
			anyOK := delivered > 0
			for r := 1; r <= 4; r++ {
				if r >= 2 {
					if nw.Send(t, netsim.Indirect(src, dst, vias[r-2])).Delivered {
						anyOK = true
					}
				}
				if !anyOK {
					lost[r]++
				}
			}
		}
		for r := 1; r <= 4; r++ {
			report += fmt.Sprintf("R=%d totlp %.4f%%\n",
				r, 100*float64(lost[r])/float64(probes))
		}
	}
	b.Logf("N-redundant mesh routing (direct + R-1 random copies)\n%s", report)
}

// BenchmarkAblationHysteresis compares the paper's simple always-switch
// selector against RON-style damped selection: hysteresis trades a little
// loss-avoidance agility for far fewer route changes (routing stability).
func BenchmarkAblationHysteresis(b *testing.B) {
	for _, h := range []float64{0, 0.25, 0.5} {
		b.Run(fmt.Sprintf("margin=%.2f", h), func(b *testing.B) {
			var changes int64
			var loss float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.RONnarrow, benchDays)
				cfg.Hysteresis = h
				res, err := core.NewArena().Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				changes = res.RouteChanges
				loss = res.Agg.Totals(res.Agg.MethodIndex("loss")).TotalLossPct
			}
			b.Logf("margin %.2f: %d route changes, loss-optimized totlp %.3f%%",
				h, changes, loss)
		})
	}
}
