package core

import (
	"runtime"
	"testing"

	"repro/internal/route"
)

// retainedAfterCell runs one cold cell on a fresh arena and returns the
// heap the arena still holds afterwards (GC'd HeapAlloc delta).
func retainedAfterCell(t *testing.T, cfg Config) (uint64, *Result) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	arena := NewArena()
	res, err := arena.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(arena)
	return after.HeapAlloc - before.HeapAlloc, res
}

// TestBigWorldFootprint holds an arena's retained memory to the memory
// model of docs/ARCHITECTURE.md ("Scaling to big worlds"): per-link
// state is sized by the links the policy probes, per-path records by the
// (method, path) slots the cell observed, and only the documented
// remainder — components, base latencies, the metrics cache and the
// routing tables — by n². One budget formula bounds both policies; a
// landmark arena that still carried an n² estimate slab, a dense
// aggregator, or per-component parameter copies would overshoot its
// budget several times over.
func TestBigWorldFootprint(t *testing.T) {
	const (
		n = 256
		// Bytes per ordered pair still held densely: half a 184 B
		// backbone component, its pointer and base latency (108); the
		// selector's metrics cache, retained tables and the campaign's
		// two route.Tables (49); the aggregator's slot index (4 per
		// method); the testbed's latency matrix (8).
		perPair = 200
		// Bytes per probed link: a 128 B estimate, its loss-window
		// ring (DefaultLossWindow), two marks, two list entries, and a
		// 24 B probe-stream slot.
		perLink = 300
		// Bytes per measurement probe: at most one new 104 B counter
		// record, 48 B window pair and touched-list entry each, with
		// append's growth slack.
		perObservation = 200
		fixed          = 1 << 20 // event queue, per-node arrays, CDF pools
	)
	budget := func(links int, res *Result) uint64 {
		return uint64(perPair*n*n + perLink*links + perObservation*int(res.MeasureProbes) + fixed)
	}
	cfg := shortBigWorldConfig(n, PolicyLandmark)
	cfg.Days = 0.001
	lm, lmRes := retainedAfterCell(t, cfg)
	cfg.Policy = PolicyFullMesh
	mesh, meshRes := retainedAfterCell(t, cfg)

	planned := route.NewLandmarkPlan(n).PlannedLinks()
	t.Logf("n=%d: landmark arena retains %d B for %d planned links and %d observations; full mesh %d B for %d links",
		n, lm, planned, lmRes.MeasureProbes, mesh, n*(n-1))
	if b := budget(planned, lmRes); lm > b {
		t.Errorf("landmark arena retains %d B, over its budget of %d B (%d B/pair + %d B/planned link + %d B/observation)",
			lm, b, perPair, perLink, perObservation)
	}
	if b := budget(n*(n-1), meshRes); mesh > b {
		t.Errorf("full-mesh arena retains %d B, over its budget of %d B", mesh, b)
	}
	// The n² remainder is common to both policies and is most of a
	// landmark arena at this size, so the ratio tends to ~0.45 only as
	// n grows; 0.6 at n=256 still fails if any per-link slab goes back
	// to n² (that alone is +13 MB on the landmark side).
	if lm*10 >= mesh*6 {
		t.Errorf("landmark arena retains %d B, not under 0.6 of the full-mesh arena's %d B", lm, mesh)
	}
}
