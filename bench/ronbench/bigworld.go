package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
)

// bigworldShape is one thousand-node-cell workload.
type bigworldShape struct {
	nodes  int
	policy core.Policy
	days   float64
}

func bigworldShapeOf(e *env, name string) bigworldShape {
	var s bigworldShape
	switch name {
	case "bigworld_landmark":
		s = bigworldShape{nodes: 1024, policy: core.PolicyLandmark, days: 0.001}
	default:
		// Half the landmark cell's virtual length: a full-mesh cell at
		// n=512 sends ~1.5M routing probes per 0.001 days, and five of
		// those plus the cold cell overrun the run budget.
		s = bigworldShape{nodes: 512, policy: core.PolicyFullMesh, days: 0.0005}
	}
	if e.tiny {
		s.nodes, s.days = 64, 0.0005
	}
	return s
}

func (s bigworldShape) config(seed uint64) core.Config {
	cfg := core.DefaultConfig(core.RONnarrow, s.days)
	cfg.Nodes = s.nodes
	cfg.Policy = s.policy
	cfg.Seed = seed
	return cfg
}

// cellDigest hashes a finished cell's rendered report and counters.
// The Result belongs to the arena, so this runs before the next cell.
func cellDigest(res *core.Result) string {
	return bytesDigest(res.Report(),
		fmt.Sprint(res.RONProbes, res.MeasureProbes, res.RouteChanges))
}

// bigworld is bigworld_landmark and bigworld_mesh: one arena, a cold
// first cell (world generation, slab construction, first full routing
// snapshot) charged to set-up, then warm cells on the following seeds.
type bigworld struct {
	e     *env
	shape bigworldShape
	arena *core.Arena
	// coldDigest is the cold cell's digest at the run's seed; the last
	// timed cell reruns that seed warm and must reproduce it, so arena
	// reuse is checked against fresh construction on every run.
	coldDigest string
	digests    []string
}

func newBigworld(e *env, name string) *bigworld {
	return &bigworld{e: e, shape: bigworldShapeOf(e, name)}
}

// Three cold cells per run, each on a new arena after the last one's
// slabs are collected; setup_s is their median.
func (w *bigworld) setupCount() int { return w.e.setupPasses(3) }
func (w *bigworld) reps() int       { return minReps }

func (w *bigworld) setup() (time.Duration, error) {
	w.arena = nil
	runtime.GC()
	t0 := time.Now()
	w.arena = core.NewArena()
	res, err := w.arena.Run(w.shape.config(w.e.seed))
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	w.coldDigest = cellDigest(res)
	return d, nil
}

// rep is one warm cell: seed+1, seed+2, … as the ISSUE's "seeds 2..6".
func (w *bigworld) rep(i int) (repResult, error) {
	cfg := w.shape.config(w.e.seed + uint64(i))
	m := startMeter()
	res, err := w.arena.Run(cfg)
	if err != nil {
		return repResult{}, err
	}
	r := repResult{measured: m.stop(), ops: 1}
	r.samples = []float64{r.wall.Seconds()}
	r.probes = res.RONProbes + res.MeasureProbes
	if r.probes == 0 {
		r.failed = 1
	}
	w.digests = append(w.digests, cellDigest(res))
	return r, nil
}

func (w *bigworld) finish(res *result, reps []repResult) {
	finishCells(res, reps)
	// Untimed: rerun the cold cell's seed on the now-warm arena.
	got, err := w.arena.Run(w.shape.config(w.e.seed))
	switch {
	case err != nil:
		res.fail("warm rerun of seed %d: %v", w.e.seed, err)
	case cellDigest(got) != w.coldDigest:
		res.fail("warm rerun of seed %d digests %s, the cold cell digested %s", w.e.seed, cellDigest(got), w.coldDigest)
		res.failed = res.attempted
	}
	// The run's digest covers the cold cell and the first minReps warm
	// cells — the ones every run has, whatever its time budget.
	n := len(w.digests)
	if n > minReps {
		n = minReps
	}
	res.digest = bytesDigest(append([]string{w.coldDigest}, w.digests[:n]...)...)
}

func (w *bigworld) close() { w.arena = nil }

// traceBigworld is the -trace run of the bigworld workloads: the cold
// cell and alternating untraced/traced warm cells on one arena — the
// same seed run both ways must digest the same — then the unit costs
// of the world's O(n²) constructors and snapshots.
func traceBigworld(e *env, name string) (*result, error) {
	shape := bigworldShapeOf(e, name)
	res := newResult(name, true)
	m := res.metrics
	start := time.Now()
	tr := newTracer()

	arena := core.NewArena()
	id := tr.begin("core.cell_cold", -1, 0)
	cold, err := arena.Run(shape.config(e.seed))
	m["core.cell_cold_ms"] = ms(tr.end(id))
	if err != nil {
		return nil, err
	}
	digests := []string{cellDigest(cold)}

	// Each seed runs twice, once plain and once under a span; which goes
	// first alternates, because the second run of a seed finds its data
	// in cache and would bias the comparison.
	var plain, traced []float64
	var counts cellCounts
	for i := 1; i <= 2 || (!e.tiny && time.Since(start).Seconds() < e.seconds); i++ {
		cfg := shape.config(e.seed + uint64(i))
		var sums [2]string
		for pass := 0; pass < 2; pass++ {
			spanned := (pass == 1) == (i%2 == 1)
			id := -1
			if spanned {
				id = tr.begin("core.cell_warm", -1, i)
			}
			t0 := time.Now()
			r, err := arena.Run(cfg)
			d := time.Since(t0).Seconds()
			tr.end(id)
			if err != nil {
				return nil, err
			}
			if spanned {
				traced = append(traced, d)
			} else {
				plain = append(plain, d)
			}
			sums[pass] = cellDigest(r)
			counts = countsOf(r)
			if spanned {
				m["route.route_changes"] += float64(r.RouteChanges)
			}
		}
		res.attempted++
		if sums[0] != sums[1] {
			res.fail("seed %d digests %s on its first run, %s on its second", cfg.Seed, sums[0], sums[1])
			res.failed++
		}
		digests = append(digests, sums[0])
	}
	// Not res.digest: how many warm cells fit the budget varies, so this
	// digest is for comparing two traced runs by eye, not for pinning.
	res.note("digest of the cold cell and %d warm cells: %s", len(digests)-1, bytesDigest(digests...))
	m["core.cell_warm_ms"] = median(traced) * 1e3
	// No trace.coverage_pct here: a cell is one call from this side, so its
	// one span covers itself and the ratio would only restate the overhead.
	m["trace.overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
	res.note("%d warm cells each run once plain and once under a span; median %.3f s untraced, %.3f s traced",
		len(traced), median(plain), median(traced))

	// Drop the arena's slabs before the unit probes build their own.
	arena = nil
	runtime.GC()
	u := probeUnits(m, shape.config(e.seed), false)
	m["core.loop_residual_pct"] = loopResidualPct(median(traced), counts, u)
	return res, writeSpans(e, res, tr)
}
