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
// Storage is flat: link state lives in a single []LinkEstimate, one
// 32-byte record per link that can be probed — all n² under full mesh,
// the plan's O(n·√n) under a LandmarkPlan — so a routing probe touches
// one half cache line of it; the routing tables are one retained pair
// of flat []viaIdx arrays, stored destination-major (dst*n+src), that
// Refresh updates in place. The selector owns what the records share:
// the window size, the dead threshold (DefaultDeadThreshold), and the
// ring words of windows past a record's 128 inline outcomes. The
// campaign's table refresh is the selector's hot path — an O(n³) scan
// per refresh — so Refresh first caches every link's loss rate, latency
// estimate, and dead flag once (O(links) divisions instead of O(n³))
// and runs the pair scan over those flat arrays. A Refresh with no
// Record since the last one finds the cache valid and does nothing; any
// other rescans every pair.
//
// Selector is not safe for concurrent use.
type Selector struct {
	n int
	// est holds one estimate per link slot (see slot): src*n+dst under
	// full mesh, the plan's compact numbering when carved for a
	// LandmarkPlan (layout, nil = full mesh). spill holds the ring words
	// past each record's inline outcomes, spillWords per slot (none at
	// windows up to 128). Both — with the metrics cache and usedList — are
	// carved at the first write after a Reset and re-carved only when the
	// plan or window then in force needs a different shape; storage is
	// kept at its high-water mark, and every record and spill word no
	// used link holds is zero. Between a Reset and that first write every
	// link is virgin and reads resolve to the virgin estimate, as do reads
	// of links the layout does not hold: loss 0, fallback latency, not
	// dead.
	est        []LinkEstimate
	spill      []uint64
	spillWords int
	layout     *LandmarkPlan
	virgin     LinkEstimate
	// window is every link's ring length, set by Reset: between a Reset
	// and the carve that follows it every record is empty, so a record
	// reads the same under any window.
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
	// mLatKey mirrors mLat as latency-scan keys (see latKey), dead links
	// pinned to latDead — a link is dead exactly when its key is (see
	// keyDead) — letting the latency scan drop its per-via dead-flag
	// branches: a path over a dead link sums to ≥ latDead and can never
	// undercut a live one. Under the full-mesh layout the key
	// of src→dst carries position dst, so a metrics row is a scan row in
	// place; under a plan's it carries position 0.
	mLatKey []latKey
	// colLoss/colLat/colKey hold the metrics column of the destination
	// currently being rescanned over the via candidates (entry i mirrors
	// candidate i→dst, its key at position 0), so the via scans read
	// contiguous arrays instead of strided ones.
	colLoss []float64
	colLat  []time.Duration
	colKey  []latKey
	// dirLoss/dirLat/dirKey are a plan's direct column: entry src holds
	// src→dst's metrics for the destination being rescanned (see
	// gatherDirect) and the virgin estimate's between destinations.
	// Under full mesh the gathered column over every node is the direct
	// column.
	dirLoss []float64
	dirLat  []time.Duration
	dirKey  []latKey

	// plan, when non-nil, restricts via candidates to its landmark set
	// (the landmark policy). nil — the default — scans every node, the
	// paper's behavior.
	plan *LandmarkPlan
	// lmRow* is the n×L landmark row table a plan's via scans read as
	// each source's row (sized by SetPlan; L = landmark count): entry
	// src*L+li mirrors src→landmark[li] in the metrics cache, with the
	// self-link sentinels where the landmark is src itself. Full mesh
	// needs no copy: its rows are the metrics cache's own.
	// A row entry's key carries its landmark position.
	lmRowLoss []float64
	lmRowLat  []time.Duration
	lmRowKey  []latKey

	// usedList holds the slots recorded since Reset — the O(touched)
	// Reset work list. Record adds a slot when it finds the record empty.
	usedList []int32
	// tables is the one copy of the routing tables, all-direct from
	// Reset on: rescanDst is its only writer between Resets and counts
	// the entries that moved into changed.
	tables       Tables
	changed      int64
	metricsValid bool // metrics cache and tables are current; Record and every setter clear it
	recorded     bool // any Record since Reset; implies a current carve
	// meshLive is recorded && layout == nil, as one flag so link's
	// full-mesh case stays within the inlining budget.
	meshLive bool
}

// latDead is the sentinel latency of a dead link in the latency keys:
// twice any latency an estimate can hold (maxLatency), and small enough
// that two of them plus a position fit a latKey. Self-link entries — the
// diagonal of a full-mesh metrics cache, a landmark's own position in a
// landmark row or column — carry the same sentinel, and +Inf loss, so
// the via scans need no src/dst skip branches: a path "via" one of its
// own endpoints composes a sentinel and loses every comparison.
const latDead = time.Duration(1) << 47

// maxLatency bounds every latency an estimate can report: Record
// refuses a probe latency outside [0, maxLatency), and
// setFallbackLatency such a fallback. Two live legs then sum below one
// sentinel, so a path over a dead link never undercuts a live one, and a
// dead direct path (latDead) loses to every live via, as BestLat has it.
const maxLatency = latDead / 2

// latKey is a latency-scan input: a latency (or latDead) shifted left by
// posBits, with a candidate position in the low bits of a scan row's
// entry and zero in a column's entry or a direct comparand. A row entry
// plus a column entry is then the path's latency over the row entry's
// position, so one min over row[i]+col[i] orders the candidates by
// latency and then by position — its result is the smallest sum and the
// first position attaining it — and is below directAdj<<posBits exactly
// when that sum is below directAdj.
type latKey int64

const (
	posBits = 14
	posMask = 1<<posBits - 1
)

// Every candidate position, a node index below MaxMeshNodes, must fit
// posBits, and two sentinels plus a position a latKey: either conversion
// is negative, and so fails to compile, if a bound moves past it.
const (
	_ = uint(1<<posBits - MaxMeshNodes)
	_ = uint(math.MaxInt64 - (2*int64(latDead)<<posBits | posMask))
)

// packLat is the latKey of latency lat at candidate position pos.
func packLat(lat time.Duration, pos int) latKey { return latKey(lat)<<posBits | latKey(pos) }

// keyDead reports whether a latency key is a dead link's (or a self-link
// sentinel's), whatever position it carries: every live latency is
// below maxLatency.
func keyDead(k latKey) bool { return k >= latKey(latDead)<<posBits }

// badLatency describes a latency outside [0, maxLatency) for a panic.
func badLatency(what string, d time.Duration) string {
	return fmt.Sprintf("route: %s %v is outside [0, %v): the latency scans' dead-link sentinel needs two live legs to sum below it", what, d, maxLatency)
}

// NewSelectorWindow creates a selector whose per-link loss windows hold
// the given number of probes ("the average loss rate over the last 100
// probes", §3.1); window <= 0 selects DefaultLossWindow.
func NewSelectorWindow(n, window int) *Selector {
	if err := ValidateMeshSize(n); err != nil {
		panic(err)
	}
	s := &Selector{
		n:       n,
		colLoss: make([]float64, n),
		colLat:  make([]time.Duration, n),
		colKey:  make([]latKey, n),
		dirLoss: make([]float64, n),
		dirLat:  make([]time.Duration, n),
		dirKey:  make([]latKey, n),
	}
	s.tables.reshape(n)
	s.Reset(window)
	return s
}

// Reset returns the selector to the state NewSelectorWindow(s.N(),
// window) would construct — empty estimates, default fallback latency,
// hysteresis disabled, no plan, all-direct routing tables — reusing the
// link slab, spill words, and snapshot scratch, so a campaign driver can
// run successive cells through one selector without allocating. Link
// turnover is O(touched): only links on the used list hold any state,
// every other record and spill word being zero. A changed window (or
// plan) takes effect at the next carve; a window past MaxLossWindow
// panics.
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
	sw := s.spillWords
	for _, slot := range s.usedList {
		s.est[slot] = LinkEstimate{}
		if sw > 0 {
			clear(s.spill[int(slot)*sw:][:sw])
		}
	}
	s.usedList = s.usedList[:0]
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
// one estimate, spillWords spill words and one metrics entry per link
// slot. It runs at the first write after a Reset — so NewSelectorWindow
// followed by SetPlan never materialises the n² layout — and is a no-op
// when the slab already has that shape. Every record and spill word is
// zero on entry (Reset's invariant) in any shape, so carving only sizes
// the slabs.
func (s *Selector) carve() {
	links := s.n * s.n
	if s.plan != nil {
		links = s.plan.PlannedLinks()
	}
	s.layout = s.plan
	s.spillWords = spillWords(s.window)
	// Plans derive from n alone and never probe all n² pairs, so the
	// link count identifies the slab's current layout.
	if links == len(s.est) && links*s.spillWords == len(s.spill) {
		return
	}
	s.est = sized(s.est, links)
	s.spill = sized(s.spill, links*s.spillWords)
	// The metrics cache keeps whatever an earlier layout left in it:
	// refreshMetrics rewrites every entry before the first read.
	s.mLoss = sized(s.mLoss, links)
	s.mLat = sized(s.mLat, links)
	s.mLatKey = sized(s.mLatKey, links)
	if cap(s.usedList) < links {
		s.usedList = make([]int32, 0, links)
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

// Record folds one probe outcome for the directed link src→dst. A
// record found empty joins the used list Reset walks; either way the
// metrics cache goes stale.
func (s *Selector) Record(src, dst int, lost bool, lat time.Duration) {
	slot := s.writeSlot(src, dst)
	le := &s.est[slot]
	first := le.empty()
	le.Record(lost, lat, s.window, s.spill[slot*s.spillWords:])
	if first {
		s.usedList = append(s.usedList, int32(slot))
	}
	s.metricsValid = false
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
	s.lmRowKey = sized(s.lmRowKey, s.n*L)
}

// Plan returns the active probe/scan plan (nil = full mesh).
func (s *Selector) Plan() *LandmarkPlan { return s.plan }

// pathLoss composes two link loss rates into a path loss rate assuming
// link independence: 1-(1-a)(1-b). (The whole point of the paper is that
// this assumption is optimistic on the real Internet; the selector still
// uses it, as RON did.)
//
// The product is rounded explicitly: Go may otherwise fuse it into the
// subtraction on architectures with a fused multiply-add (arm64), and
// the tables must not depend on the build target.
func pathLoss(a, b float64) float64 {
	return 1 - float64((1-a)*(1-b))
}

// lossEps is the loss scans' tie margin: a candidate within it of the
// best so far ties, and the direct path wins a tie.
const lossEps = 1e-9

// BestLoss returns the loss-optimized path from src to dst: the direct
// path or the best single-intermediate path, whichever has the lowest
// estimated loss rate. When the direct path ties the minimum (within
// lossEps), it wins — RON prefers the native path when indirection gains
// nothing, and on a quiet mesh this keeps the loss-optimized route from
// collapsing onto the latency-optimized one. Among strictly better
// indirect candidates, ties break toward lower latency.
func (s *Selector) BestLoss(src, dst int) Choice {
	direct := s.link(src, dst)
	directChoice := Choice{
		Via:     -1,
		Loss:    direct.LossRate(s.window),
		Latency: direct.LatencyEstimate(s.fallbackLat),
	}
	best := directChoice
	for vi, stop := s.viaRange(); vi < stop; vi++ {
		via := s.viaAt(vi)
		if via == src || via == dst {
			continue
		}
		l1, l2 := s.link(src, via), s.link(via, dst)
		loss := pathLoss(l1.LossRate(s.window), l2.LossRate(s.window))
		lat := l1.LatencyEstimate(s.fallbackLat) + l2.LatencyEstimate(s.fallbackLat)
		if loss < best.Loss-lossEps ||
			(loss < best.Loss+lossEps && !best.IsDirect() && lat < best.Latency) {
			best = Choice{Via: via, Loss: loss, Latency: lat}
		}
	}
	if directChoice.Loss <= best.Loss+lossEps {
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

// viaIdx is the element of every n² via table — Tables' two and the
// selector's hysteresis pair: an intermediate's node index, or -1 for
// the direct path. Two bytes, because they are the selector's only
// state a landmark plan cannot shrink below n².
type viaIdx int16

// MaxMeshNodes-1 must fit a viaIdx: the conversion is negative, and so
// fails to compile, if the cap is raised past the element type.
const _ = uint(math.MaxInt16 - (MaxMeshNodes - 1))

// Likewise a LinkEstimate must be exactly 32 bytes, half a cache line,
// and MaxLossWindow must fit the record's 16-bit cursor.
const (
	_ = uint(32 - unsafe.Sizeof(LinkEstimate{}))
	_ = uint(unsafe.Sizeof(LinkEstimate{}) - 32)
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
// information rate). When hysteresis is enabled each pair keeps its held
// path unless the fresh one beats it by the margin or it crosses a dead
// link (see SetHysteresis); without it the plain selections.
//
// A refresh with no Record since the last one (and no SetPlan,
// setFallbackLatency or SetHysteresis) finds the metrics cache valid and
// does nothing; any other rebuilds the cache and rescans every pair.
// RON probes every link once per refresh interval (§3.1), so at the
// default 15 s refresh every link has a new sample by then anyway.
func (s *Selector) Refresh() int64 {
	if !s.recorded || s.metricsValid {
		// Virgin: every estimate is in its initial state, so every pair
		// selects the direct path — loss 0 hits the quiet-mesh shortcut,
		// and any via path costs 2× the direct fallback latency. With
		// hysteresis the held path is already direct (-1) and a tied
		// challenger never beats the margin, so prev state is unchanged
		// too — exactly what the full rescan would do. The tables have
		// been all-direct since Reset. A valid cache means every pair's
		// inputs are those of the last rescan, which would recompute the
		// same selections and hold the same paths.
		return 0
	}
	s.refreshMetrics()
	if s.plan != nil {
		s.gatherLandmarkRows()
		s.fillDirect(0, s.n)
	}
	s.metricsValid = true
	s.changed = 0
	s.rescan()
	return s.changed
}

// viaRows is what a rescan reads of the via candidates: source src's
// metrics row over them at [src*k, src*k+k) of loss, lat and key, and
// the node at each candidate position (nodes is nil under full mesh,
// where position and node coincide). Full mesh reads the metrics
// cache's own rows, whose diagonal holds the self-link sentinels; a
// plan reads the landmark row table.
type viaRows struct {
	loss  []float64
	lat   []time.Duration
	key   []latKey
	k     int
	nodes []int32
}

// viaRows returns the rows of the candidate set now in force.
func (s *Selector) viaRows() viaRows {
	if p := s.plan; p != nil {
		return viaRows{loss: s.lmRowLoss, lat: s.lmRowLat, key: s.lmRowKey, k: len(p.landmarks), nodes: p.landmarks}
	}
	return viaRows{loss: s.mLoss, lat: s.mLat, key: s.mLatKey, k: s.n}
}

// node maps a kernel's candidate position to its node; the direct
// path's -1 stays.
func (v *viaRows) node(pos int) int {
	if pos < 0 || v.nodes == nil {
		return pos
	}
	return int(v.nodes[pos])
}

// rescan re-derives every pair into the tables destination by
// destination. The per-pair selections are independent, so the order
// does not affect the result; it only makes the table writes sequential.
func (s *Selector) rescan() {
	v := s.viaRows()
	for dst := 0; dst < s.n; dst++ {
		s.rescanDst(&v, dst)
	}
}

// rescanDst re-derives the pairs src→dst for every source but dst
// itself, whose diagonal entry stays at the -1 Reset gave it. It is BestLoss
// and BestLat of each pair over the metrics cache, bit for bit, damped
// under hysteresis: dst's candidate column and direct column are
// gathered once, and each source's row is read in place; a held path is
// scored from the same arrays (see heldPath). It is the tables' only
// writer between Resets and counts the entries it moves.
func (s *Selector) rescanDst(v *viaRows, dst int) {
	n, k := s.n, v.k
	dpos := s.gatherCol(dst)
	colLoss, colLat, colKey := s.colLoss[:k], s.colLat[:k], s.colKey[:k]
	// Full mesh: the column over every node is the direct column too.
	dirLoss, dirLat, dirKey := colLoss, colLat, colKey
	if v.nodes != nil {
		s.gatherDirect(dst, dpos)
		dirLoss, dirLat, dirKey = s.dirLoss, s.dirLat, s.dirKey
	}
	dirLoss, dirLat, dirKey = dirLoss[:n], dirLat[:n], dirKey[:n]
	lossT, latT := s.tables.lossVia[dst*n:dst*n+n], s.tables.latVia[dst*n:dst*n+n]
	changed := int64(0)
	for src := 0; src < n; src++ {
		if src == dst {
			continue
		}
		lo, hi := src*k, src*k+k
		directLoss, directLat := dirLoss[src], dirLat[src]
		// Quiet-mesh shortcut: loss rates are probabilities in [0,1], so
		// every candidate's composed loss is ≥ 0 and BestLoss's final
		// direct-wins tie-break (direct ≤ best+eps) must fire when the
		// direct path's own loss is ≤ eps. Most pairs are lossless most
		// of the time, so this skips the via scan for the dominant case —
		// with a result provably identical to running it.
		lossPos, loss := -1, directLoss
		if directLoss > lossEps {
			lossPos, loss = bestLossVia(v.loss[lo:hi], colLoss, v.lat[lo:hi], colLat, directLoss, directLat)
		}
		latPos, lat := minSumVia(v.key[lo:hi], colKey, dirKey[src])
		lossVia, latVia := v.node(lossPos), v.node(latPos)
		if s.hysteresis > 0 {
			if latPos < 0 {
				lat = directLat
			}
			// A held path equal to the fresh one is selected either way.
			at := dst*n + src
			if cur := int(s.prevLoss[at]); cur != lossVia {
				hl, _, dead := s.heldPath(v, src, dst, cur, directLoss, directLat, dirKey[src])
				if !dead && !betterBy(loss, hl, s.hysteresis) {
					lossVia = cur
				} else {
					s.prevLoss[at] = viaIdx(lossVia)
				}
			}
			if cur := int(s.prevLat[at]); cur != latVia {
				_, hl, dead := s.heldPath(v, src, dst, cur, directLoss, directLat, dirKey[src])
				if !dead && !betterBy(float64(lat), float64(hl), s.hysteresis) {
					latVia = cur
				} else {
					s.prevLat[at] = viaIdx(latVia)
				}
			}
		}
		if w := viaIdx(lossVia); lossT[src] != w {
			lossT[src] = w
			changed++
		}
		if w := viaIdx(latVia); latT[src] != w {
			latT[src] = w
			changed++
		}
	}
	s.changed += changed
	if v.nodes != nil {
		s.restoreDirect(dst, dpos)
	}
}

// heldPath scores a held path of src→dst — via, or the direct path when
// via < 0 — from what rescanDst holds for destination dst: the direct
// path's loss, latency and key, src's row entry at via's candidate
// position and the gathered column's. It returns the path's loss,
// latency, and whether it crosses a dead link. A via that is no longer a
// candidate (held across a SetPlan) is read from the metrics cache.
func (s *Selector) heldPath(v *viaRows, src, dst, via int, directLoss float64, directLat time.Duration, directKey latKey) (float64, time.Duration, bool) {
	if via < 0 {
		return directLoss, directLat, keyDead(directKey)
	}
	pos := via
	if v.nodes != nil {
		if pos = int(s.plan.lmIndex[via]); pos < 0 {
			l1, t1, k1 := s.cached(src, via)
			l2, t2, k2 := s.cached(via, dst)
			return pathLoss(l1, l2), t1 + t2, keyDead(k1) || keyDead(k2)
		}
	}
	at := src*v.k + pos
	return pathLoss(v.loss[at], s.colLoss[pos]), v.lat[at] + s.colLat[pos], keyDead(v.key[at]) || keyDead(s.colKey[pos])
}

// cached returns src→dst's entry of the metrics cache: loss rate,
// latency, and latency key at position 0 (a dead link's pinned to
// latDead). A link the layout holds no slot for was never probed and
// reads as the virgin estimate does: loss 0, the fallback latency,
// alive.
func (s *Selector) cached(src, dst int) (loss float64, lat time.Duration, key latKey) {
	if slot := s.slot(src, dst); slot >= 0 {
		return s.mLoss[slot], s.mLat[slot], s.mLatKey[slot] &^ posMask
	}
	return 0, s.fallbackLat, packLat(s.fallbackLat, 0)
}

// gatherCol copies destination dst's metrics column over the via
// candidates into the column scratch and returns dst's own candidate
// position, -1 when it is not one. Full-mesh scanning runs over the
// full-mesh layout only, whose slots are src*n+dst and whose diagonal
// holds the sentinels.
func (s *Selector) gatherCol(dst int) int {
	if p := s.plan; p != nil {
		for li, lm := range p.landmarks {
			s.colLoss[li], s.colLat[li], s.colKey[li] = s.cachedVia(int(lm), dst)
		}
		return int(p.lmIndex[dst])
	}
	n := s.n
	for via := 0; via < n; via++ {
		s.colLoss[via] = s.mLoss[via*n+dst]
		s.colLat[via] = s.mLat[via*n+dst]
		s.colKey[via] = s.mLatKey[via*n+dst] &^ posMask
	}
	return dst
}

// gatherDirect writes a plan's direct column for destination dst, whose
// candidate position is dpos: src→dst's metrics at entry src, the key at
// position 0. Every node probes a landmark, and a full-mesh slab (a plan
// set over it) holds every link, so those columns are read whole. A
// non-landmark under the plan's own layout is probed only by the
// landmarks, whose entries its gathered candidate column holds, and by
// its two ring neighbours; every other entry keeps the virgin estimate's
// metrics, so only those L+2 are patched.
func (s *Selector) gatherDirect(dst, dpos int) {
	p := s.plan
	if dpos >= 0 || s.layout == nil {
		for src := 0; src < s.n; src++ {
			s.dirLoss[src], s.dirLat[src], s.dirKey[src] = s.cached(src, dst)
		}
		return
	}
	for li, lm := range p.landmarks {
		s.dirLoss[lm], s.dirLat[lm], s.dirKey[lm] = s.colLoss[li], s.colLat[li], s.colKey[li]
	}
	next, prev := p.ring(dst)
	for _, src := range [2]int{next, prev} {
		s.dirLoss[src], s.dirLat[src], s.dirKey[src] = s.cached(src, dst)
	}
}

// restoreDirect returns the entries gatherDirect(dst, dpos) wrote to the
// virgin estimate's metrics.
func (s *Selector) restoreDirect(dst, dpos int) {
	p := s.plan
	if dpos >= 0 || s.layout == nil {
		s.fillDirect(0, s.n)
		return
	}
	for _, lm := range p.landmarks {
		s.fillDirect(int(lm), int(lm)+1)
	}
	next, prev := p.ring(dst)
	s.fillDirect(next, next+1)
	s.fillDirect(prev, prev+1)
}

// fillDirect sets the direct column's entries [from, to) to the virgin
// estimate's metrics: loss 0, the fallback latency, alive.
func (s *Selector) fillDirect(from, to int) {
	key := packLat(s.fallbackLat, 0)
	for src := from; src < to; src++ {
		s.dirLoss[src], s.dirLat[src], s.dirKey[src] = 0, s.fallbackLat, key
	}
}

// gatherLandmarkRows rebuilds the landmark row table from the metrics
// cache (after refreshMetrics).
func (s *Selector) gatherLandmarkRows() {
	lms := s.plan.landmarks
	L := len(lms)
	for src := 0; src < s.n; src++ {
		for li, lm := range lms {
			at := src*L + li
			var key latKey
			s.lmRowLoss[at], s.lmRowLat[at], key = s.cachedVia(src, int(lm))
			s.lmRowKey[at] = key | latKey(li)
		}
	}
}

// cachedVia is cached for one leg of a via path: a candidate that is the
// leg's other endpoint reads the self-link sentinels (see latDead).
func (s *Selector) cachedVia(src, dst int) (loss float64, lat time.Duration, key latKey) {
	if src == dst {
		return math.Inf(1), 0, packLat(latDead, 0)
	}
	return s.cached(src, dst)
}

// minSumVia is the latency scans' kernel over packed keys (see latKey):
// the first position whose row[i]+col[i] is the smallest and strictly
// below direct — what a running strict minimum started at direct would
// keep — and that sum's latency, or -1 and direct's latency when the
// direct path wins or ties. The keys make it one pass of independent
// min accumulators with no data-dependent branch: which of many
// near-equal sums is smallest is a coin toss to a branch predictor, and
// the position rides in the low bits, so no second pass looks for it.
func minSumVia(row, col []latKey, direct latKey) (int, time.Duration) {
	col = col[:len(row)]
	m0, m1, m2, m3 := direct, direct, direct, direct
	for i := 3; i < len(row); i += 4 {
		m0 = min(m0, row[i-3]+col[i-3])
		m1 = min(m1, row[i-2]+col[i-2])
		m2 = min(m2, row[i-1]+col[i-1])
		m3 = min(m3, row[i]+col[i])
	}
	for i := len(row) &^ 3; i < len(row); i++ {
		m0 = min(m0, row[i]+col[i])
	}
	if best := min(m0, m1, m2, m3); best < direct {
		return int(best & posMask), time.Duration(best >> posBits)
	}
	return -1, time.Duration(direct >> posBits)
}

// refreshMetrics caches every held link's loss rate, latency estimate,
// and dead flag into the flat metrics arrays. The cached values are
// exactly what LossRate/LatencyEstimate/Dead would return for the
// duration of one refresh (no probes are recorded mid-refresh), so
// selections computed from the cache are bit-identical to ones computed
// through the estimates — just without re-deriving each link O(n)
// times. It walks the link slab, so a plan pays for its planned links,
// not n².
func (s *Selector) refreshMetrics() {
	if s.layout != nil {
		for slot := range s.est {
			s.cacheLink(slot, 0)
		}
		return
	}
	n := s.n
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			s.cacheLink(src*n+dst, dst)
		}
		// A full-mesh slab has a slot per self-link; pin the sentinels
		// the via scans rely on (see latDead).
		d := src*n + src
		s.mLoss[d], s.mLat[d], s.mLatKey[d] = math.Inf(1), 0, packLat(latDead, src)
	}
}

// cacheLink re-derives one slot's metrics-cache entry from its estimate,
// its key at candidate position pos.
func (s *Selector) cacheLink(slot, pos int) {
	le := &s.est[slot]
	lat := le.LatencyEstimate(s.fallbackLat)
	adj := lat
	if le.Dead(DefaultDeadThreshold) {
		adj = latDead
	}
	s.mLoss[slot], s.mLat[slot], s.mLatKey[slot] = le.LossRate(s.window), lat, packLat(adj, pos)
}

// bestLossVia is BestLoss's scan over one source row of the metrics
// cache and the gathered column, for a direct path lossier than lossEps
// (rescanDst takes the quiet-mesh shortcut otherwise): the winning
// candidate position and its loss, or -1 and directLoss when the direct
// path wins. It carries only the scalars the comparisons need, and
// mirrors BestLoss exactly — same eps, same tie-breaks, same float
// expression, candidates in the same ascending order — so the two agree
// bit for bit.
func bestLossVia(rowLoss, colLoss []float64, rowLat, colLat []time.Duration, directLoss float64, directLat time.Duration) (int, float64) {
	k := len(rowLoss)
	colLoss, rowLat, colLat = colLoss[:k], rowLat[:k], colLat[:k]
	bestVia, bestLoss, bestLat := -1, directLoss, directLat
	// No via==src/dst skips: those positions read the self-link
	// sentinels (+Inf loss), whose composed loss compares false against
	// everything (including via NaN when the other link is fully
	// lossy), exactly like the explicit skip.
	for via := 0; via < k; via++ {
		loss := pathLoss(rowLoss[via], colLoss[via])
		if loss < bestLoss-lossEps {
			bestVia, bestLoss = via, loss
			bestLat = rowLat[via] + colLat[via]
			continue
		}
		if bestVia >= 0 && loss < bestLoss+lossEps {
			if lat := rowLat[via] + colLat[via]; lat < bestLat {
				bestVia, bestLoss, bestLat = via, loss, lat
			}
		}
	}
	if directLoss <= bestLoss+lossEps {
		return -1, directLoss
	}
	return bestVia, bestLoss
}

// setFallbackLatency overrides the unmeasured-link latency penalty,
// which Reset restores to 500 ms; tests vary it. The cached metrics
// embed the old value, so the next Refresh rescans. A fallback outside
// [0, maxLatency) panics.
func (s *Selector) setFallbackLatency(d time.Duration) {
	if uint64(d) >= uint64(maxLatency) {
		panic(badLatency("fallback latency", d))
	}
	s.fallbackLat = d
	s.metricsValid = false
}

// SetHysteresis enables damped selection: a new path must improve on the
// currently held path's metric by margin (e.g. 0.25 = 25% better) —
// absolute when the held path's is ~0 — before Refresh switches a pair
// away from it, unless the held path crosses a dead link. State is kept
// per ordered pair. Zero disables.
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
		Loss:    direct.LossRate(s.window),
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
			Loss: pathLoss(l1.LossRate(s.window), l2.LossRate(s.window)),
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
