package route

import (
	"fmt"
	"math"
	"time"
	"unsafe"
)

// Choice is a selected overlay path: the direct Internet path (Via < 0)
// or a one-intermediate-hop path via node Via. It mirrors the paper's
// overlay routing, which "uses at most one intermediate node ... to
// forward packets" (§1).
type Choice struct {
	Via int
	// Loss is the estimated end-to-end loss probability of the path.
	Loss float64
	// Latency is the estimated end-to-end one-way latency.
	Latency time.Duration
}

// IsDirect reports whether the choice is the native path.
func (c Choice) IsDirect() bool { return c.Via < 0 }

// String renders "direct" or "via 7".
func (c Choice) String() string {
	if c.IsDirect() {
		return "direct"
	}
	return fmt.Sprintf("via %d", c.Via)
}

// Selector maintains per-link estimates for an N-node mesh and picks
// loss- or latency-optimized one-intermediate paths, RON-style (§3.1).
// The simulation campaign feeds it probe outcomes.
//
// Storage is flat: link state lives in a single []LinkEstimate (one
// backing ring buffer shared by every loss window) holding one entry
// per link that can be probed — all n² under full mesh, the plan's
// O(n·√n) under a LandmarkPlan — and the routing tables are one retained
// pair of flat []viaIdx arrays, stored destination-major (dst*n+src),
// that Refresh updates in place. The
// campaign's table refresh is the selector's hot path — an O(n³) scan
// per refresh — so Refresh first caches every link's loss rate, latency
// estimate, and dead flag once (O(links) divisions instead of O(n³))
// and runs the pair scan over those flat arrays.
//
// Selector is not safe for concurrent use.
type Selector struct {
	n int
	// est holds one estimate per link slot (see slot): src*n+dst under
	// full mesh, the plan's compact numbering when carved for a
	// LandmarkPlan (layout, nil = full mesh). rings is the one backing
	// bitset behind every loss window, carveWindow bits in whole words per
	// link. Both
	// — with the metrics cache, linkTouched/usedMark and their lists —
	// are carved at the first write after a Reset and re-carved only
	// when the plan or window then in force needs a different shape;
	// storage is kept at its high-water mark. Between a Reset and that
	// first write every link is virgin and reads resolve to the virgin
	// estimate, as do reads of links the layout does not hold: loss 0,
	// fallback latency, not dead.
	est         []LinkEstimate
	rings       []uint64
	layout      *LandmarkPlan
	carveWindow int
	virgin      LinkEstimate
	// window is the per-link ring length the next carve uses.
	window int
	// fallbackLat is the latency charged to links with no samples yet,
	// so that unmeasured paths are not spuriously attractive.
	fallbackLat time.Duration
	// hysteresis, when > 0, damps route flapping: a challenger path
	// must beat the incumbent's metric by this relative margin before
	// the selection moves (RON used a similar mechanism to keep routes
	// stable under measurement noise). State is kept per ordered pair.
	hysteresis float64
	prevLoss   []viaIdx // last chosen via per pair, -1 = direct; dst*n+src like the tables
	prevLat    []viaIdx
	// prevStale marks the held paths as a previous cell's: Reset leaves
	// the buffers alone and the next SetHysteresis(margin > 0) refills
	// them, so cells that run undamped never pay the 2 × n² writes.
	prevStale bool

	// The metrics cache, one entry per link slot like est: per-link
	// metrics cached by refreshMetrics so the O(n³) pair scan reads flat
	// float/duration arrays instead of re-deriving each estimate O(n)
	// times through the LinkEstimate interface. A link the layout does
	// not hold has no entry and reads as the virgin constants (see
	// cached).
	mLoss []float64
	mLat  []time.Duration
	mDead []bool
	// mLatAdj mirrors mLat with dead links pinned to latDead, letting
	// the latency scan drop its per-via dead-flag branches: a path over
	// a dead link sums to ≥ latDead and can never undercut a live one.
	mLatAdj []time.Duration
	// colLoss/colLat/colLatAdj hold the metrics column of the
	// destination currently being rescanned over the via candidates
	// (entry i mirrors candidate i→dst), so the via scans read
	// contiguous arrays instead of strided ones.
	colLoss   []float64
	colLat    []time.Duration
	colLatAdj []time.Duration

	// plan, when non-nil, restricts via candidates to its landmark set
	// (the landmark policy). nil — the default — scans every node, the
	// paper's behavior.
	plan *LandmarkPlan
	// lmRow* is the n×L landmark row table a plan's via scans read as
	// each source's row (sized by SetPlan; L = landmark count): entry
	// src*L+li mirrors src→landmark[li] in the metrics cache, with the
	// self-link sentinels where the landmark is src itself. Full mesh
	// needs no copy: its rows are the metrics cache's own.
	lmRowLoss   []float64
	lmRowLat    []time.Duration
	lmRowLatAdj []time.Duration

	// Incremental snapshot state. Record marks links touched; Refresh
	// re-derives only pairs whose inputs — the source row or destination
	// column of the metrics cache — contain a touched link, in the
	// retained tables. A pair whose inputs are unchanged
	// would recompute to exactly its previous selection (and leave its
	// hysteresis state unchanged: an equal-value challenger never beats
	// the margin), so skipping it is exact;
	// snapshot_equiv_test.go pins equality against full rescans.
	linkTouched  []bool  // per slot, since the last snapshot
	touchedLinks []int32 // src*n+dst of links with linkTouched set, append order
	usedMark     []bool  // per slot, since Reset — the O(touched) Reset work list
	usedList     []int32 // slots
	dirtyRow     []bool  // per-source scratch, clear outside Refresh
	dirtyCol     []bool  // per-destination scratch, cleared by the rescan
	dirtyRows    []int32
	// tables is the one copy of the routing tables, all-direct from
	// Reset on: every rescan writes it through setPair, which counts the
	// entries that moved into changed.
	tables       Tables
	changed      int64
	metricsValid bool // metrics cache mirrors every estimate
	recorded     bool // any Record since Reset; implies a current carve
	// meshLive is recorded && layout == nil, as one flag so link's
	// full-mesh case stays within the inlining budget.
	meshLive bool
}

// latDead is the sentinel latency of a dead link in mLatAdj: far above
// any real estimate, and small enough that summing two of them cannot
// overflow. Self-link entries — the diagonal of a full-mesh metrics
// cache, a landmark's own position in a landmark row or column — carry
// the same sentinel, and +Inf loss, so the via scans need no src/dst skip
// branches: a path "via" one of its own endpoints composes a sentinel
// and loses every comparison.
const latDead = time.Duration(1) << 61

// NewSelectorWindow creates a selector whose per-link loss windows hold
// the given number of probes ("the average loss rate over the last 100
// probes", §3.1); window <= 0 selects DefaultLossWindow.
func NewSelectorWindow(n, window int) *Selector {
	if err := ValidateMeshSize(n); err != nil {
		panic(err)
	}
	s := &Selector{
		n:         n,
		colLoss:   make([]float64, n),
		colLat:    make([]time.Duration, n),
		colLatAdj: make([]time.Duration, n),
		dirtyRow:  make([]bool, n),
		dirtyCol:  make([]bool, n),
		dirtyRows: make([]int32, 0, n),
	}
	s.tables.reshape(n)
	s.Reset(window)
	return s
}

// Reset returns the selector to the state NewSelectorWindow(s.N(),
// window) would construct — empty estimates, default fallback latency,
// hysteresis disabled, no plan, all-direct routing tables — reusing the
// link slab, ring storage, and snapshot scratch, so a campaign driver can
// run successive cells through one selector without allocating. Link
// turnover is O(touched): only links marked used since the last Reset
// hold any state, every other estimate and ring word being exactly as
// carve left it. A changed window (or plan) takes effect at the next
// carve; a window past MaxLossWindow panics.
func (s *Selector) Reset(window int) {
	if err := ValidateLossWindow(window); err != nil {
		panic(err)
	}
	if window <= 0 {
		window = DefaultLossWindow
	}
	s.fallbackLat = 500 * time.Millisecond
	s.hysteresis = 0
	s.plan = nil
	s.tables.fillDirect()
	s.metricsValid = false
	s.recorded = false
	s.meshLive = false
	s.window = window
	for _, slot := range s.usedList {
		s.usedMark[slot] = false
		s.linkTouched[slot] = false
		le := &s.est[slot]
		le.Loss.Reset()
		*le = LinkEstimate{Loss: le.Loss}
	}
	s.usedList = s.usedList[:0]
	s.touchedLinks = s.touchedLinks[:0]
	// Hysteresis state buffers survive for reuse; SetHysteresis makes
	// them look freshly allocated if this cell re-enables damping.
	s.prevStale = true
}

// sized returns buf resliced to n elements, reallocating only past its
// capacity. A resliced buffer keeps its old contents: the link slab's
// users leave everything they release zeroed, and scratch users
// rewrite before reading.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// carve lays the link slab out for the plan and window now in force:
// one estimate, ring segment, metrics entry and pair of marks per link
// slot. It runs at the first write after a Reset — so NewSelectorWindow
// followed by SetPlan never materialises the n² layout — and is a no-op
// when the slab already has that shape. Every estimate is in its reset
// state and every ring zero on entry (Reset's invariant), so carving
// only re-points estimates at their ring segments.
func (s *Selector) carve() {
	links := s.n * s.n
	if s.plan != nil {
		links = s.plan.PlannedLinks()
	}
	s.layout = s.plan
	// Plans derive from n alone and never probe all n² pairs, so the
	// link count identifies the slab's current layout.
	if links == len(s.est) && s.window == s.carveWindow {
		return
	}
	s.carveWindow = s.window
	s.est = sized(s.est, links)
	words := ringWords(s.window)
	s.rings = sized(s.rings, links*words)
	s.linkTouched = sized(s.linkTouched, links)
	s.usedMark = sized(s.usedMark, links)
	// The metrics cache keeps whatever an earlier layout left in it:
	// refreshMetrics rewrites every entry before the first read.
	s.mLoss = sized(s.mLoss, links)
	s.mLat = sized(s.mLat, links)
	s.mDead = sized(s.mDead, links)
	s.mLatAdj = sized(s.mLatAdj, links)
	if cap(s.usedList) < links {
		s.touchedLinks = make([]int32, 0, links)
		s.usedList = make([]int32, 0, links)
	}
	for i := range s.est {
		s.est[i].Loss = LossWindow{ring: s.rings[i*words : (i+1)*words], size: uint16(s.window)}
	}
}

// slot maps the directed link src→dst to its index in the link slab, or
// -1 for a link the layout's plan does not probe.
func (s *Selector) slot(src, dst int) int {
	if s.layout != nil {
		return s.layout.linkSlot(src, dst)
	}
	return src*s.n + dst
}

// link returns the estimate of src→dst for reading only: the shared
// virgin estimate stands in for every link before the first write since
// Reset and for links the layout does not hold. The full-mesh case is
// split out so it inlines into the via scans.
func (s *Selector) link(src, dst int) *LinkEstimate {
	if s.meshLive {
		return &s.est[src*s.n+dst]
	}
	return s.plannedLink(src, dst)
}

func (s *Selector) plannedLink(src, dst int) *LinkEstimate {
	if s.recorded {
		if slot := s.layout.linkSlot(src, dst); slot >= 0 {
			return &s.est[slot]
		}
	}
	return &s.virgin
}

// writeSlot returns the slot of src→dst for mutation, carving the slab
// on the first write since Reset. Like link, it keeps the full-mesh
// case inlinable: Record runs once per routing probe.
func (s *Selector) writeSlot(src, dst int) int {
	if s.meshLive {
		return src*s.n + dst
	}
	return s.carvedSlot(src, dst)
}

func (s *Selector) carvedSlot(src, dst int) int {
	if !s.recorded {
		s.carve()
		s.recorded = true
		s.meshLive = s.layout == nil
	}
	slot := s.slot(src, dst)
	if slot < 0 {
		panic(fmt.Sprintf("route: link %d→%d is not probed under the landmark plan and holds no estimate", src, dst))
	}
	return slot
}

// N returns the mesh size.
func (s *Selector) N() int { return s.n }

// Record folds one probe outcome for the directed link src→dst.
func (s *Selector) Record(src, dst int, lost bool, lat time.Duration) {
	slot := s.writeSlot(src, dst)
	s.est[slot].Record(lost, lat)
	s.touch(src*s.n+dst, slot)
}

// touch marks a link changed since the last snapshot (and used since
// Reset). Both lists are deduplicated by their mark arrays, so the hot
// path pays one predictable branch per probe after the first touch of
// an interval.
func (s *Selector) touch(idx, slot int) {
	if !s.linkTouched[slot] {
		s.linkTouched[slot] = true
		s.touchedLinks = append(s.touchedLinks, int32(idx))
		if !s.usedMark[slot] {
			s.usedMark[slot] = true
			s.usedList = append(s.usedList, int32(slot))
		}
	}
}

// SetPlan restricts via candidates to the plan's landmark set (nil
// restores full-mesh scanning), sizes the landmark row table, and makes
// the plan's links the only ones that hold estimates. Changing the
// plan invalidates the metrics cache: the next Refresh recomputes
// everything under the new candidate set. The link slab is
// laid out at the first Record since Reset for the plan then in
// force: a full-mesh slab holds every link, so a plan may still be set
// (or swapped, or dropped) over it later, but a slab carved for a plan
// cannot serve full mesh.
func (s *Selector) SetPlan(p *LandmarkPlan) {
	if p != nil && p.n != s.n {
		panic(fmt.Sprintf("route: plan for %d nodes applied to %d-node selector", p.n, s.n))
	}
	if p == nil && s.recorded && s.layout != nil {
		panic("route: SetPlan(nil) after Record: link state was laid out for the landmark plan; Reset first")
	}
	s.plan = p
	s.metricsValid = false
	if p == nil {
		return
	}
	L := len(p.landmarks)
	s.lmRowLoss = sized(s.lmRowLoss, s.n*L)
	s.lmRowLat = sized(s.lmRowLat, s.n*L)
	s.lmRowLatAdj = sized(s.lmRowLatAdj, s.n*L)
}

// Plan returns the active probe/scan plan (nil = full mesh).
func (s *Selector) Plan() *LandmarkPlan { return s.plan }

// pathLoss composes two link loss rates into a path loss rate assuming
// link independence: 1-(1-a)(1-b). (The whole point of the paper is that
// this assumption is optimistic on the real Internet; the selector still
// uses it, as RON did.)
func pathLoss(a, b float64) float64 {
	return 1 - (1-a)*(1-b)
}

// BestLoss returns the loss-optimized path from src to dst: the direct
// path or the best single-intermediate path, whichever has the lowest
// estimated loss rate. When the direct path ties the minimum (within
// eps), it wins — RON prefers the native path when indirection gains
// nothing, and on a quiet mesh this keeps the loss-optimized route from
// collapsing onto the latency-optimized one. Among strictly better
// indirect candidates, ties break toward lower latency.
func (s *Selector) BestLoss(src, dst int) Choice {
	const eps = 1e-9
	direct := s.link(src, dst)
	directChoice := Choice{
		Via:     -1,
		Loss:    direct.LossRate(),
		Latency: direct.LatencyEstimate(s.fallbackLat),
	}
	best := directChoice
	for vi, stop := s.viaRange(); vi < stop; vi++ {
		via := s.viaAt(vi)
		if via == src || via == dst {
			continue
		}
		l1, l2 := s.link(src, via), s.link(via, dst)
		loss := pathLoss(l1.LossRate(), l2.LossRate())
		lat := l1.LatencyEstimate(s.fallbackLat) + l2.LatencyEstimate(s.fallbackLat)
		if loss < best.Loss-eps ||
			(loss < best.Loss+eps && !best.IsDirect() && lat < best.Latency) {
			best = Choice{Via: via, Loss: loss, Latency: lat}
		}
	}
	if directChoice.Loss <= best.Loss+eps {
		return directChoice
	}
	return best
}

// viaRange/viaAt iterate the via candidate set: every node under full
// mesh, the landmark list under a plan. Both lists are ascending, so
// restricting the set preserves tie-break order.
func (s *Selector) viaRange() (int, int) {
	if s.plan != nil {
		return 0, len(s.plan.landmarks)
	}
	return 0, s.n
}

func (s *Selector) viaAt(i int) int {
	if s.plan != nil {
		return int(s.plan.landmarks[i])
	}
	return i
}

// BestLat returns the latency-optimized path from src to dst, skipping
// completely failed links ("minimizes latency and avoids completely
// failed links", §4). If every candidate path crosses a dead link, the
// direct path is returned as a last resort.
func (s *Selector) BestLat(src, dst int) Choice {
	direct := s.link(src, dst)
	best := Choice{Via: -1, Loss: direct.LossRate(), Latency: direct.LatencyEstimate(s.fallbackLat)}
	bestAlive := !direct.Dead()
	for vi, stop := s.viaRange(); vi < stop; vi++ {
		via := s.viaAt(vi)
		if via == src || via == dst {
			continue
		}
		l1, l2 := s.link(src, via), s.link(via, dst)
		if l1.Dead() || l2.Dead() {
			continue
		}
		lat := l1.LatencyEstimate(s.fallbackLat) + l2.LatencyEstimate(s.fallbackLat)
		loss := pathLoss(l1.LossRate(), l2.LossRate())
		if !bestAlive || lat < best.Latency {
			best = Choice{Via: via, Loss: loss, Latency: lat}
			bestAlive = true
		}
	}
	return best
}

// viaIdx is the element of every n² via table — Tables' two and the
// selector's hysteresis pair: an intermediate's node index, or -1 for
// the direct path. Two bytes, because they are the selector's only
// state a landmark plan cannot shrink below n².
type viaIdx int16

// MaxMeshNodes-1 must fit a viaIdx: the conversion is negative, and so
// fails to compile, if the cap is raised past the element type.
const _ = uint(math.MaxInt16 - (MaxMeshNodes - 1))

// Likewise a LinkEstimate must fit a 64-byte cache line, and
// MaxLossWindow the window's 16-bit cursor.
const (
	_ = uint(64 - unsafe.Sizeof(LinkEstimate{}))
	_ = uint(math.MaxUint16 - MaxLossWindow)
)

// Tables is a full routing snapshot: for every ordered pair, the selected
// intermediate (-1 = direct) under each optimization goal. Storage is a
// pair of flat []viaIdx arrays indexed destination-major, dst*n+src: the
// order in which Refresh derives pairs. The selector's own
// (Selector.Tables) is the one Refresh keeps current; the zero value is
// empty and is (re)shaped by Selector.SnapshotInto, which copies into it
// without allocating once its buffers reach mesh size.
type Tables struct {
	n       int
	lossVia []viaIdx
	latVia  []viaIdx
}

// LossVia returns the loss-optimized intermediate for src→dst, or -1 for
// the direct path.
func (t *Tables) LossVia(src, dst int) int { return int(t.lossVia[dst*t.n+src]) }

// LatVia returns the latency-optimized intermediate for src→dst, or -1
// for the direct path.
func (t *Tables) LatVia(src, dst int) int { return int(t.latVia[dst*t.n+src]) }

// fillDirect sets every pair to the direct path: a freshly booted RON's
// tables.
func (t *Tables) fillDirect() {
	for i := range t.lossVia {
		t.lossVia[i], t.latVia[i] = -1, -1
	}
}

// reshape readies the tables for an n-node snapshot, reusing buffers.
func (t *Tables) reshape(n int) {
	t.n = n
	if cap(t.lossVia) < n*n {
		t.lossVia = make([]viaIdx, n*n)
		t.latVia = make([]viaIdx, n*n)
		return
	}
	t.lossVia = t.lossVia[:n*n]
	t.latVia = t.latVia[:n*n]
}

// SnapshotInto is Refresh followed by a copy of the tables into t,
// reusing t's buffers (zero allocations once t has mesh capacity), for
// callers that want tables of their own. The campaign hot path reads
// the selector's own through Tables and calls Refresh.
func (s *Selector) SnapshotInto(t *Tables) {
	s.Refresh()
	t.reshape(s.n)
	copy(t.lossVia, s.tables.lossVia)
	copy(t.latVia, s.tables.latVia)
}

// Tables returns the selector's routing tables, current as of the last
// Refresh, for reading: a view of the one copy, not a snapshot — the next
// Refresh updates it in place. A new or Reset selector's tables are
// all-direct.
func (s *Selector) Tables() *Tables { return &s.tables }

// Refresh brings the routing tables up to date with the estimates for
// all ordered pairs and returns how many entries moved, loss and latency
// tables summed (the campaign's routing-dynamism counter): the count a
// Diff of the tables before and after the call would give, where a new
// or Reset selector's tables are all-direct, as a freshly booted RON's
// would be. Campaigns call this periodically (the paper's probing updates
// selections continuously; a 15 s refresh matches the probe interval's
// information rate). When hysteresis is enabled the damped
// (BestLossStable/BestLatStable) selections are used; without it the
// plain ones.
//
// Refreshes are incremental: only pairs whose inputs changed since the
// last one — a touched link in their source row or destination column —
// are re-derived. Three tiers, cheapest first: a virgin mesh (no
// estimate ever touched) keeps the all-direct tables without even
// building the metrics cache; a mesh with valid metrics re-derives only
// dirty pairs; anything else (first real refresh, or after Reset /
// SetPlan / setFallbackLatency / SetHysteresis) does the full rescan.
// Every tier produces bit-identical tables to the full rescan.
func (s *Selector) Refresh() int64 {
	s.changed = 0
	switch {
	case !s.recorded:
		// Virgin: every estimate is in its initial state, so every pair
		// selects the direct path — loss 0 hits the quiet-mesh shortcut,
		// and any via path costs 2× the direct fallback latency. With
		// hysteresis the held path is already direct (-1) and a tied
		// challenger never beats the margin, so prev state is unchanged
		// too — exactly what the full rescan would do. The tables have
		// been all-direct since Reset.
	case !s.metricsValid:
		s.refreshMetrics()
		if s.plan != nil {
			s.gatherLandmarkRows()
		}
		s.metricsValid = true
		s.clearTouched()
		s.rescan(true)
	case len(s.touchedLinks) > 0:
		s.rescanDirty()
	}
	return s.changed
}

// setPair writes one pair's selections into the tables at idx =
// dst*n+src, counting the entries that moved. It is their only writer
// between Resets.
func (s *Selector) setPair(idx, lossVia, latVia int) {
	if v := viaIdx(lossVia); s.tables.lossVia[idx] != v {
		s.tables.lossVia[idx] = v
		s.changed++
	}
	if v := viaIdx(latVia); s.tables.latVia[idx] != v {
		s.tables.latVia[idx] = v
		s.changed++
	}
}

// clearTouched drops the pending touched-links list (their effect is
// covered by a full rescan).
func (s *Selector) clearTouched() {
	for _, li := range s.touchedLinks {
		s.linkTouched[s.slot(int(li)/s.n, int(li)%s.n)] = false
	}
	s.touchedLinks = s.touchedLinks[:0]
}

// viaRows is what a rescan reads of the via candidates: source src's
// metrics row over them at [src*k, src*k+k) of loss, lat and adj, and
// the node at each candidate position (nodes is nil under full mesh,
// where position and node coincide). Full mesh reads the metrics
// cache's own rows, whose diagonal holds the self-link sentinels; a
// plan reads the landmark row table. dpos is the position of the
// destination being rescanned, -1 when it is not a candidate.
type viaRows struct {
	loss     []float64
	lat, adj []time.Duration
	k        int
	nodes    []int32
	dpos     int
}

// viaRows returns the rows of the candidate set now in force.
func (s *Selector) viaRows() viaRows {
	if p := s.plan; p != nil {
		return viaRows{loss: s.lmRowLoss, lat: s.lmRowLat, adj: s.lmRowLatAdj, k: len(p.landmarks), nodes: p.landmarks}
	}
	return viaRows{loss: s.mLoss, lat: s.mLat, adj: s.mLatAdj, k: s.n}
}

// node maps a kernel's candidate position to its node; the direct
// path's -1 stays.
func (v *viaRows) node(pos int) int {
	if pos < 0 || v.nodes == nil {
		return pos
	}
	return int(v.nodes[pos])
}

// rescan re-derives pairs into the tables destination by destination —
// every pair when all is set, else exactly the pairs that read a dirty
// row or column (see rescanDirty) — gathering each destination's
// candidate column once for its sources. The per-pair selections are
// independent, so the order does not affect the result; it only makes
// the table writes sequential. The diagonal stays at the -1 Reset gave
// it.
func (s *Selector) rescan(all bool) {
	n := s.n
	v := s.viaRows()
	for dst := 0; dst < n; dst++ {
		every := all || s.dirtyCol[dst]
		s.dirtyCol[dst] = false
		if !every && len(s.dirtyRows) == 0 {
			continue
		}
		v.dpos = s.gatherCol(dst)
		if every {
			for src := 0; src < n; src++ {
				if src != dst {
					s.rescanPair(&v, src, dst)
				}
			}
			continue
		}
		for _, sr := range s.dirtyRows {
			if src := int(sr); src != dst {
				s.rescanPair(&v, src, dst)
			}
		}
	}
}

// rescanPair re-derives one pair; dst's column must be gathered.
func (s *Selector) rescanPair(v *viaRows, src, dst int) {
	byLoss, byLat := s.bestCached(v, src, dst)
	s.setPair(dst*s.n+src, s.holdLoss(src, dst, byLoss), s.holdLat(src, dst, byLat))
}

// bestCached is BestLoss and BestLat of src→dst over the metrics cache:
// src's row in v against dst's gathered column. The direct link is read
// from the row where dst is a candidate, as it always is under full
// mesh, and from the cache otherwise.
func (s *Selector) bestCached(v *viaRows, src, dst int) (byLoss, byLat Choice) {
	lo, hi := src*v.k, src*v.k+v.k
	rowLoss, rowLat, rowAdj := v.loss[lo:hi], v.lat[lo:hi], v.adj[lo:hi]
	var loss float64
	var lat, adj time.Duration
	if d := v.dpos; d >= 0 {
		loss, lat, adj = rowLoss[d], rowLat[d], rowAdj[d]
	} else {
		loss, lat, adj, _ = s.cached(src, dst)
	}
	byLoss = s.bestLossCached(rowLoss, rowLat, loss, lat)
	byLat = s.bestLatCached(rowLoss, rowAdj, loss, lat, adj)
	byLoss.Via, byLat.Via = v.node(byLoss.Via), v.node(byLat.Via)
	return byLoss, byLat
}

// cached returns src→dst's entry of the metrics cache: loss rate,
// latency, latency with a dead link pinned to latDead, and the dead
// flag. A link the layout holds no slot for was never probed and reads
// as the virgin estimate does: loss 0, the fallback latency, alive.
func (s *Selector) cached(src, dst int) (loss float64, lat, adj time.Duration, dead bool) {
	if slot := s.slot(src, dst); slot >= 0 {
		return s.mLoss[slot], s.mLat[slot], s.mLatAdj[slot], s.mDead[slot]
	}
	return 0, s.fallbackLat, s.fallbackLat, false
}

// gatherCol copies destination dst's metrics column over the via
// candidates into the column scratch and returns dst's own candidate
// position, -1 when it is not one. Full-mesh scanning runs over the
// full-mesh layout only, whose slots are src*n+dst and whose diagonal
// holds the sentinels.
func (s *Selector) gatherCol(dst int) int {
	if p := s.plan; p != nil {
		for li, lm := range p.landmarks {
			s.colLoss[li], s.colLat[li], s.colLatAdj[li] = s.cachedVia(int(lm), dst)
		}
		return int(p.lmIndex[dst])
	}
	n := s.n
	for via := 0; via < n; via++ {
		s.colLoss[via] = s.mLoss[via*n+dst]
		s.colLat[via] = s.mLat[via*n+dst]
		s.colLatAdj[via] = s.mLatAdj[via*n+dst]
	}
	return dst
}

// gatherLandmarkRows rebuilds the landmark row table from the metrics
// cache (after a full refreshMetrics); rescanDirty keeps it current.
func (s *Selector) gatherLandmarkRows() {
	lms := s.plan.landmarks
	L := len(lms)
	for src := 0; src < s.n; src++ {
		for li, lm := range lms {
			at := src*L + li
			s.lmRowLoss[at], s.lmRowLat[at], s.lmRowLatAdj[at] = s.cachedVia(src, int(lm))
		}
	}
}

// rescanDirty refreshes the metrics of touched links, marks their rows
// and columns dirty, and re-derives exactly the pairs that read a dirty
// row or column. Pairs left alone have bit-identical inputs to the last
// snapshot, so their retained selections (and hysteresis state) are
// what a full rescan would recompute.
func (s *Selector) rescanDirty() {
	n := s.n
	for _, li := range s.touchedLinks {
		idx := int(li)
		src, dst := idx/n, idx%n
		slot := s.slot(src, dst)
		s.linkTouched[slot] = false
		loss, lat, adj := s.cacheLink(slot)
		if p := s.plan; p != nil {
			if li := p.lmIndex[dst]; li >= 0 {
				at := src*len(p.landmarks) + int(li)
				s.lmRowLoss[at], s.lmRowLat[at], s.lmRowLatAdj[at] = loss, lat, adj
			}
		}
		if !s.dirtyRow[src] {
			s.dirtyRow[src] = true
			s.dirtyRows = append(s.dirtyRows, int32(src))
		}
		s.dirtyCol[dst] = true
	}
	s.touchedLinks = s.touchedLinks[:0]
	s.rescan(false)
	for _, r := range s.dirtyRows {
		s.dirtyRow[r] = false
	}
	s.dirtyRows = s.dirtyRows[:0]
}

// cachedVia is cached for one leg of a via path: a candidate that is the
// leg's other endpoint reads the self-link sentinels (see latDead).
func (s *Selector) cachedVia(src, dst int) (loss float64, lat, adj time.Duration) {
	if src == dst {
		return math.Inf(1), 0, latDead
	}
	loss, lat, adj, _ = s.cached(src, dst)
	return loss, lat, adj
}

// minSumVia is the latency scans' kernel: the first position whose
// row[i]+col[i] is the smallest and strictly below direct — what a
// running strict minimum started at direct would keep — and that sum, or
// -1 when the direct path wins or ties. Which of many near-equal sums is
// smallest is a coin toss to a branch predictor, so there are two passes
// without one: the minimum through independent accumulators, then the
// first position attaining it.
func minSumVia(row, col []time.Duration, direct time.Duration) (int, time.Duration) {
	col = col[:len(row)]
	m0, m1, m2, m3 := direct, direct, direct, direct
	i := 0
	for ; i+4 <= len(row); i += 4 {
		r, c := row[i:i+4], col[i:i+4]
		m0 = min(m0, r[0]+c[0])
		m1 = min(m1, r[1]+c[1])
		m2 = min(m2, r[2]+c[2])
		m3 = min(m3, r[3]+c[3])
	}
	for ; i < len(row); i++ {
		m0 = min(m0, row[i]+col[i])
	}
	best := min(m0, m1, m2, m3)
	if best >= direct {
		return -1, direct
	}
	for i = 0; row[i]+col[i] != best; i++ {
	}
	return i, best
}

// refreshMetrics caches every held link's loss rate, latency estimate,
// and dead flag into the flat metrics arrays. The cached values are
// exactly what LossRate/LatencyEstimate/Dead would return for the
// duration of one refresh (no probes are recorded mid-refresh), so
// selections computed from the cache are bit-identical to ones computed
// through the estimates — just without re-deriving each link O(n) times.
// It walks the link slab, so a plan pays for its planned links, not n².
func (s *Selector) refreshMetrics() {
	for slot := range s.est {
		s.cacheLink(slot)
	}
	if s.layout == nil {
		// A full-mesh slab has a slot per self-link; pin the sentinels
		// the via scans rely on (see latDead).
		for i := 0; i < s.n; i++ {
			d := i*s.n + i
			s.mLoss[d], s.mLat[d], s.mDead[d], s.mLatAdj[d] = math.Inf(1), 0, false, latDead
		}
	}
}

// cacheLink re-derives one slot's metrics-cache entry from its estimate
// and returns it.
func (s *Selector) cacheLink(slot int) (loss float64, lat, adj time.Duration) {
	le := &s.est[slot]
	loss = le.LossRate()
	lat = le.LatencyEstimate(s.fallbackLat)
	dead := le.Dead()
	adj = lat
	if dead {
		adj = latDead
	}
	s.mLoss[slot], s.mLat[slot], s.mDead[slot], s.mLatAdj[slot] = loss, lat, dead, adj
	return loss, lat, adj
}

// bestLossCached is BestLoss over one source row of the metrics cache
// and the gathered column, carrying only the scalars the comparisons
// need; it serves either candidate set, and the Via of its choice is a
// candidate position. The comparison structure mirrors BestLoss exactly
// — same eps, same tie-breaks, same float expression, candidates in the
// same ascending order — so the two agree bit-for-bit.
func (s *Selector) bestLossCached(rowLoss []float64, rowLat []time.Duration, directLoss float64, directLat time.Duration) Choice {
	const eps = 1e-9
	// Quiet-mesh shortcut: loss rates are probabilities in [0,1], so
	// every candidate's composed loss is ≥ 0 and the final direct-wins
	// tie-break (direct ≤ best+eps) must fire when the direct path's
	// own loss is ≤ eps. Most pairs are lossless most of the time, so
	// this skips the via scan for the dominant case — with a result
	// provably identical to running it.
	if directLoss <= eps {
		return Choice{Via: -1, Loss: directLoss, Latency: directLat}
	}
	k := len(rowLoss)
	rowLat = rowLat[:k]
	colLoss, colLat := s.colLoss[:k], s.colLat[:k]
	bestVia, bestLoss, bestLat := -1, directLoss, directLat
	// No via==src/dst skips: those positions read the self-link
	// sentinels (+Inf loss), whose composed loss compares false against
	// everything (including via NaN when the other link is fully
	// lossy), exactly like the explicit skip.
	for via := 0; via < k; via++ {
		loss := pathLoss(rowLoss[via], colLoss[via])
		if loss < bestLoss-eps {
			bestVia, bestLoss = via, loss
			bestLat = rowLat[via] + colLat[via]
			continue
		}
		if bestVia >= 0 && loss < bestLoss+eps {
			if lat := rowLat[via] + colLat[via]; lat < bestLat {
				bestVia, bestLoss, bestLat = via, loss, lat
			}
		}
	}
	if directLoss <= bestLoss+eps {
		return Choice{Via: -1, Loss: directLoss, Latency: directLat}
	}
	return Choice{Via: bestVia, Loss: bestLoss, Latency: bestLat}
}

// bestLatCached is BestLat over one source row and the gathered column,
// bit for bit, its Via a candidate position like bestLossCached's. Dead
// links carry the latDead sentinel, so the scan needs no dead branches:
// a path over one sums to ≥ latDead and loses to every live candidate,
// and a dead direct path (directAdj = latDead) starts the scan there,
// where any live via undercuts it (BestLat's "!bestAlive" escape). Nor
// does it skip via == src/dst: those positions read the sentinels too.
func (s *Selector) bestLatCached(rowLoss []float64, rowAdj []time.Duration, directLoss float64, directLat, directAdj time.Duration) Choice {
	via, best := minSumVia(rowAdj, s.colLatAdj, directAdj)
	if via < 0 {
		return Choice{Via: -1, Loss: directLoss, Latency: directLat}
	}
	return Choice{Via: via, Loss: pathLoss(rowLoss[via], s.colLoss[via]), Latency: best}
}

// heldCached scores the held path — via, or the direct path when via < 0
// — from the metrics cache and reports whether it crosses a dead link:
// the cached twin of evaluate and pathDead.
func (s *Selector) heldCached(src, dst, via int) (held Choice, dead bool) {
	if via < 0 {
		loss, lat, _, dead := s.cached(src, dst)
		return Choice{Via: -1, Loss: loss, Latency: lat}, dead
	}
	l1, t1, _, d1 := s.cached(src, via)
	l2, t2, _, d2 := s.cached(via, dst)
	return Choice{Via: via, Loss: pathLoss(l1, l2), Latency: t1 + t2}, d1 || d2
}

// holdLoss applies loss-metric hysteresis to a freshly computed best
// choice, updating the held path when it switches.
func (s *Selector) holdLoss(src, dst int, best Choice) int {
	if s.hysteresis <= 0 {
		return best.Via
	}
	cur := int(s.prevLoss[dst*s.n+src])
	held, dead := s.heldCached(src, dst, cur)
	if !dead && !betterBy(best.Loss, held.Loss, s.hysteresis) {
		return cur
	}
	s.prevLoss[dst*s.n+src] = viaIdx(best.Via)
	return best.Via
}

// holdLat applies latency-metric hysteresis to a freshly computed best
// choice.
func (s *Selector) holdLat(src, dst int, best Choice) int {
	if s.hysteresis <= 0 {
		return best.Via
	}
	cur := int(s.prevLat[dst*s.n+src])
	held, dead := s.heldCached(src, dst, cur)
	if !dead && !betterBy(float64(best.Latency), float64(held.Latency), s.hysteresis) {
		return cur
	}
	s.prevLat[dst*s.n+src] = viaIdx(best.Via)
	return best.Via
}

// setFallbackLatency overrides the unmeasured-link latency penalty,
// which Reset restores to 500 ms; tests vary it. The cached metrics
// embed the old value, so the next Refresh rescans.
func (s *Selector) setFallbackLatency(d time.Duration) {
	s.fallbackLat = d
	s.metricsValid = false
}

// SetHysteresis enables damped selection: a new path must improve on the
// currently held path's metric by margin (e.g. 0.25 = 25% better) before
// BestLossStable/BestLatStable switch away from it. Zero disables.
func (s *Selector) SetHysteresis(margin float64) {
	if margin < 0 {
		margin = 0
	}
	s.hysteresis = margin
	// The tables were derived under the old damping setting.
	s.metricsValid = false
	if margin <= 0 {
		return
	}
	if s.prevLoss == nil {
		s.prevLoss = make([]viaIdx, s.n*s.n)
		s.prevLat = make([]viaIdx, s.n*s.n)
		s.prevStale = true
	}
	if s.prevStale {
		// -1 = "no held path": what a fresh selector starts from.
		for i := range s.prevLoss {
			s.prevLoss[i] = -1
			s.prevLat[i] = -1
		}
		s.prevStale = false
	}
}

// evaluate scores one candidate path.
func (s *Selector) evaluate(src, dst, via int) Choice {
	if via < 0 {
		le := s.link(src, dst)
		return Choice{Via: -1, Loss: le.LossRate(),
			Latency: le.LatencyEstimate(s.fallbackLat)}
	}
	l1, l2 := s.link(src, via), s.link(via, dst)
	return Choice{
		Via:  via,
		Loss: pathLoss(l1.LossRate(), l2.LossRate()),
		Latency: l1.LatencyEstimate(s.fallbackLat) +
			l2.LatencyEstimate(s.fallbackLat),
	}
}

// pathDead reports whether a candidate path crosses a dead link.
func (s *Selector) pathDead(src, dst, via int) bool {
	if via < 0 {
		return s.link(src, dst).Dead()
	}
	return s.link(src, via).Dead() || s.link(via, dst).Dead()
}

// BestLossStable is BestLoss with hysteresis: the previously chosen path
// is kept unless the fresh optimum beats its loss estimate by the
// configured margin (absolute when the incumbent's loss is ~0), or the
// incumbent crosses a dead link. Without hysteresis it equals BestLoss.
func (s *Selector) BestLossStable(src, dst int) Choice {
	best := s.BestLoss(src, dst)
	if s.hysteresis <= 0 {
		return best
	}
	cur := int(s.prevLoss[dst*s.n+src])
	held := s.evaluate(src, dst, cur)
	if !s.pathDead(src, dst, cur) && !betterBy(best.Loss, held.Loss, s.hysteresis) {
		return held
	}
	s.prevLoss[dst*s.n+src] = viaIdx(best.Via)
	return best
}

// BestLatStable is BestLat with hysteresis on the latency metric.
func (s *Selector) BestLatStable(src, dst int) Choice {
	best := s.BestLat(src, dst)
	if s.hysteresis <= 0 {
		return best
	}
	cur := int(s.prevLat[dst*s.n+src])
	held := s.evaluate(src, dst, cur)
	if !s.pathDead(src, dst, cur) &&
		!betterBy(float64(best.Latency), float64(held.Latency), s.hysteresis) {
		return held
	}
	s.prevLat[dst*s.n+src] = viaIdx(best.Via)
	return best
}

// betterBy reports whether challenger improves on incumbent by the
// relative margin; for near-zero incumbents an absolute epsilon applies
// so a 0-vs-0 tie never switches.
func betterBy(challenger, incumbent, margin float64) bool {
	if incumbent <= 1e-12 {
		return false // can't beat a perfect incumbent
	}
	return challenger < incumbent*(1-margin)
}

// KBestDisjointAppend appends up to k pairwise link-disjoint paths from
// src to dst to buf, ordered by estimated loss ascending (ties break
// toward lower latency, then toward the direct path, then toward the
// lower via index). The candidate set is the direct path plus every
// single-intermediate path: the direct path uses only the src→dst link
// while a via path uses src→via and via→dst with via ∉ {src, dst}, so
// any two candidates with distinct vias are link-disjoint by
// construction — picking the k lowest-loss candidates yields a
// link-disjoint set without an explicit conflict check. This is the
// multi-path counterpart of BestLoss: a redundant sender stripes copies
// (or FEC shards) across the returned paths (§5). A steady-state
// caller (the campaign workload driver) reuses one scratch slice across
// frames instead of allocating per query.
func (s *Selector) KBestDisjointAppend(buf []Choice, src, dst, k int) []Choice {
	if src == dst || k < 1 {
		return buf
	}
	if max := s.n - 1; k > max {
		k = max
	}
	start := len(buf)
	direct := s.link(src, dst)
	buf = append(buf, Choice{
		Via:     -1,
		Loss:    direct.LossRate(),
		Latency: direct.LatencyEstimate(s.fallbackLat),
	})
	for vi, stop := s.viaRange(); vi < stop; vi++ {
		via := s.viaAt(vi)
		if via == src || via == dst {
			continue
		}
		l1, l2 := s.link(src, via), s.link(via, dst)
		c := Choice{
			Via:  via,
			Loss: pathLoss(l1.LossRate(), l2.LossRate()),
			Latency: l1.LatencyEstimate(s.fallbackLat) +
				l2.LatencyEstimate(s.fallbackLat),
		}
		cand := buf[start:]
		if len(cand) < k {
			buf = append(buf, c)
			cand = buf[start:]
		} else if kbetter(c, cand[len(cand)-1]) {
			cand[len(cand)-1] = c
		} else {
			continue
		}
		// One insertion pass keeps the kept set sorted; k is tiny
		// (bounded by the path-count axis), so this beats a heap.
		for i := len(cand) - 1; i > 0 && kbetter(cand[i], cand[i-1]); i-- {
			cand[i], cand[i-1] = cand[i-1], cand[i]
		}
	}
	return buf
}

// kbetter orders candidates for KBestDisjointAppend: lower loss first, then
// lower latency, then direct before via, then lower via index. The
// ordering is total over the candidate set (vias are distinct), so the
// selection is deterministic.
func kbetter(a, b Choice) bool {
	if a.Loss != b.Loss {
		return a.Loss < b.Loss
	}
	if a.Latency != b.Latency {
		return a.Latency < b.Latency
	}
	return a.Via < b.Via
}
