package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/netsim"
	"repro/internal/route"
)

// retainedAfterCell runs one cold cell on a fresh arena and returns the
// heap the arena still holds afterwards (GC'd HeapAlloc delta) and the
// backbone components the cell built.
func retainedAfterCell(t *testing.T, cfg Config) (uint64, int, *Result) {
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
	return after.HeapAlloc - before.HeapAlloc, arena.nw.Materialised(), res
}

// TestBigWorldFootprint holds an arena's retained memory to the memory
// model of docs/ARCHITECTURE.md ("Memory model: state is sized by what a
// cell touches"): per-link state is sized by the links the policy
// probes, per-path records by the (method, path) slots the cell
// observed, backbone components by the pairs that carried a packet, and
// only the documented remainder — the component index, base latencies,
// the metrics cache and the routing tables — by n². One budget formula
// bounds both policies; a landmark arena that still carried an n²
// estimate slab, a dense aggregator, eagerly built components, or
// per-component parameter copies would overshoot its budget.
func TestBigWorldFootprint(t *testing.T) {
	const (
		n = 256
		// Bytes per ordered pair still held densely: the network's
		// component index and base latency (4 + 8); the selector's
		// metrics cache (two floats, a duration and a flag: 25) and its
		// retained int16 tables (4); the campaign's two route.Tables
		// (8); the aggregator's slot index (4 for each of the three
		// RONnarrow methods); the testbed's latency matrix (8). That is
		// 69; the rest is allocator size-class rounding.
		perPair = 72
		// Bytes per probed link: a 128 B estimate, its loss-window
		// ring (DefaultLossWindow), two marks, two list entries, a
		// 24 B probe-stream slot and the wheel's 8 B of sort scratch.
		perLink = 300
		// Bytes per measurement probe: at most one new 104 B counter
		// record, 48 B window pair and touched-list entry each, with
		// append's growth slack.
		perObservation = 200
		fixed          = 1 << 20 // event queue, per-node arrays, CDF pools
	)
	// A component is two cache lines; the slab relies on the size being
	// a multiple of the line for its hot/cold split.
	perComponent := int(unsafe.Sizeof(netsim.Component{}))
	if perComponent > 128 {
		t.Errorf("netsim.Component is %d B, over the two cache lines the memory model allows", perComponent)
	}
	budget := func(links, components int, res *Result) uint64 {
		return uint64(perPair*n*n + perLink*links + perComponent*components +
			perObservation*int(res.MeasureProbes) + fixed)
	}
	cfg := shortBigWorldConfig(n, PolicyLandmark)
	cfg.Days = 0.001
	lm, lmBuilt, lmRes := retainedAfterCell(t, cfg)
	cfg.Policy = PolicyFullMesh
	mesh, meshBuilt, meshRes := retainedAfterCell(t, cfg)

	planned := route.NewLandmarkPlan(n).PlannedLinks()
	t.Logf("n=%d: landmark arena retains %d B for %d planned links, %d of %d backbone components and %d observations; full mesh %d B for %d links and %d components; ratio %.3f",
		n, lm, planned, lmBuilt, n*(n-1)/2, lmRes.MeasureProbes, mesh, n*(n-1), meshBuilt, float64(lm)/float64(mesh))
	if b := budget(planned, lmBuilt, lmRes); lm > b {
		t.Errorf("landmark arena retains %d B, over its budget of %d B (%d B/pair + %d B/planned link + %d B/component + %d B/observation)",
			lm, b, perPair, perLink, perComponent, perObservation)
	}
	if b := budget(n*(n-1), meshBuilt, meshRes); mesh > b {
		t.Errorf("full-mesh arena retains %d B, over its budget of %d B", mesh, b)
	}
	if meshBuilt != n*(n-1)/2 {
		t.Errorf("full-mesh cell built %d backbone components, want all %d: every pair is probed", meshBuilt, n*(n-1)/2)
	}
	// The n² remainder is common to both policies, and at this size a
	// landmark cell's random intermediates already reach three quarters
	// of the pairs, so the ratio is 0.48 here and falls as n grows; any
	// per-link slab going back to n² is +13 MB on the landmark side.
	if lm*2 >= mesh {
		t.Errorf("landmark arena retains %d B, not under half of the full-mesh arena's %d B", lm, mesh)
	}
}
