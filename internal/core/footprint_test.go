package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/netsim"
	"repro/internal/route"
)

// coldCell is what one cold cell on a fresh arena cost: the heap the
// arena still holds afterwards (GC'd HeapAlloc delta), every byte the
// cell allocated on the way there (TotalAlloc delta), and the backbone
// components it built.
type coldCell struct {
	retained, allocated uint64
	built               int
	res                 *Result
}

func runColdCell(t *testing.T, cfg Config) coldCell {
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
	return coldCell{
		retained:  after.HeapAlloc - before.HeapAlloc,
		allocated: after.TotalAlloc - before.TotalAlloc,
		built:     arena.nw.Materialised(),
		res:       res,
	}
}

// TestBigWorldFootprint holds an arena's memory to the memory model of
// docs/ARCHITECTURE.md ("Memory model: state is sized by what a cell
// touches"): per-link state is sized by the links the policy probes,
// per-path records by the (method, path) slots the cell observed,
// backbone components by the pairs that carried a packet, and only the
// documented remainder — the component index, base latencies, the
// routing tables and the aggregator's slot index — by n². One budget
// formula bounds both policies; a landmark arena that still carried an
// n² estimate slab or metrics cache, a dense aggregator, eagerly built
// components, or a second copy of the routing tables would overshoot
// its budget. And the cell's peak is what it keeps: nearly every byte a
// cold cell allocates is still in use when it ends, so a slab that
// grows by reallocating — leaving its outgrown copies as garbage below
// the collector's trigger, resident all the same — fails here even
// though what it retains is unchanged.
func TestBigWorldFootprint(t *testing.T) {
	const (
		n = 256
		// Bytes per ordered pair still held densely: the network's
		// component index and base latency (4 + 8); the selector's one
		// pair of int16 routing tables (4); the aggregator's slot index
		// (4 for each of the three RONnarrow methods); the testbed's
		// latency matrix (8). That is 36; the rest is allocator
		// size-class rounding.
		perPair = 40
		// Bytes per probed link: a 32 B estimate holding its own
		// loss-window ring (half a cache line; route holds that at
		// compile time), its 24 B metrics-cache entry, its used-list
		// entry (4), a 20 B probe-stream slot and the wheel's 8 B of
		// sort scratch. That is 88; the rest is size-class rounding, and
		// too little for a second half-line of estimate or a
		// byte-per-probe ring.
		perLink = 101
		// Bytes per measurement probe: at most one new 104 B counter
		// record, 48 B window pair and touched-list entry each. Records
		// come in chunks that are never regrown, so the only slack is
		// the unused tail of the last chunk, which goes in fixed.
		perObservation = 160
		fixed          = 1 << 20 // event queue, per-node arrays, CDF pools, chunk tail
		// A cold cell may allocate this much more than it keeps: the
		// per-method touched lists still grow by append, and building
		// the world leaves some scratch behind.
		maxAllocatedOverRetained = 1.15
	)
	// A component is two cache lines; the slab relies on the size being
	// a multiple of the line for its hot/cold split.
	perComponent := int(unsafe.Sizeof(netsim.Component{}))
	if perComponent > 128 {
		t.Errorf("netsim.Component is %d B, over the two cache lines the memory model allows", perComponent)
	}
	budget := func(links int, c coldCell) uint64 {
		return uint64(perPair*n*n + perLink*links + perComponent*c.built +
			perObservation*int(c.res.MeasureProbes) + fixed)
	}
	cfg := shortBigWorldConfig(n, PolicyLandmark)
	cfg.Days = 0.001
	lm := runColdCell(t, cfg)
	cfg.Policy = PolicyFullMesh
	mesh := runColdCell(t, cfg)

	planned := route.NewLandmarkPlan(n).PlannedLinks()
	t.Logf("n=%d: landmark arena retains %d B of %d B allocated for %d planned links, %d of %d backbone components and %d observations; full mesh %d B of %d B for %d links and %d components; ratio %.3f",
		n, lm.retained, lm.allocated, planned, lm.built, n*(n-1)/2, lm.res.MeasureProbes,
		mesh.retained, mesh.allocated, n*(n-1), mesh.built, float64(lm.retained)/float64(mesh.retained))
	if b := budget(planned, lm); lm.retained > b {
		t.Errorf("landmark arena retains %d B, over its budget of %d B (%d B/pair + %d B/planned link + %d B/component + %d B/observation)",
			lm.retained, b, perPair, perLink, perComponent, perObservation)
	}
	if b := budget(n*(n-1), mesh); mesh.retained > b {
		t.Errorf("full-mesh arena retains %d B, over its budget of %d B", mesh.retained, b)
	}
	for _, c := range []struct {
		policy string
		coldCell
	}{{"landmark", lm}, {"full-mesh", mesh}} {
		if float64(c.allocated) > maxAllocatedOverRetained*float64(c.retained) {
			t.Errorf("a cold %s cell allocates %d B to retain %d B (%.2f×, over %.2f×): something it outgrew was left behind as garbage",
				c.policy, c.allocated, c.retained, float64(c.allocated)/float64(c.retained), maxAllocatedOverRetained)
		}
	}
	if mesh.built != n*(n-1)/2 {
		t.Errorf("full-mesh cell built %d backbone components, want all %d: every pair is probed", mesh.built, n*(n-1)/2)
	}
	// The n² remainder and the observations are common to both policies
	// and the mesh cell builds the quarter of the components a landmark
	// cell's random intermediates have not reached yet, so what separates
	// the arenas is, at least, the per-link state of the links the plan
	// does not probe. A per-link slab of the landmark arena going back to
	// n² closes that gap by its share of perLink.
	unplanned := n*(n-1) - planned
	if gap := int64(mesh.retained) - int64(lm.retained); float64(gap) < 0.9*perLink*float64(unplanned) {
		t.Errorf("landmark arena retains %d B, only %d B under the full-mesh arena's %d B: want at least 0.9 × %d B for each of the %d links the plan does not probe",
			lm.retained, gap, mesh.retained, perLink, unplanned)
	}
}
