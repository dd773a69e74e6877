// Package netsim simulates the Internet substrate under the RON testbed:
// a component-level loss/latency model in which every host's access
// infrastructure is shared by all of its paths and every host pair has its
// own backbone segment. It stands in for the live Internet of the paper's
// measurement study; calib_test.go holds it to the paper's headline
// statistics, which is the argument for the substitution.
//
// The simulator is deterministic: the same seed, topology, profile, and
// send schedule reproduce identical packet outcomes.
package netsim

import (
	"fmt"

	"repro/internal/topo"
)

// Network is the simulated substrate for one testbed. It is not safe for
// concurrent use; campaign drivers issue sends sequentially in virtual
// time order.
type Network struct {
	tb     *topo.Testbed
	prof   *Profile
	seed   uint64
	global *globalModulator
	// weather0 is the global congestion factor at time 0, captured in
	// Reset before anything can advance the forward-only modulator. It
	// is the one input of Component.init that depends on when init
	// runs, so holding it lets backbone components be built at their
	// first transit and still start exactly as if built at Reset.
	weather0 float64
	// params is the table of effective parameter sets (profile knobs
	// applied) that components point into: the three backbone reaches
	// (base, intl, far), then one set per access class in use, listed
	// in accClass. A profile has a handful of sets, so sharing them
	// keeps a 160-byte copy out of each of the O(n²) components.
	params   []paramSet
	accClass []topo.AccessClass
	access   []Component // one per host, rebuilt in place by Reset
	// Backbone components exist from their first transit: a cell holds
	// and initialises the pairs it sends packets over, not n²/2.
	// bbSlot[i*n+j] is the slab slot of pair {i,j}'s component (both
	// orders alias one slot), 0 while it has none. A flat index keeps
	// the O(n²) probe storm's lookups on one cache-friendly array. The
	// slab grows a chunk at a time so component addresses never move
	// (scenario actions and tests hold *Component); Reset clears the
	// index and keeps the chunks when the mesh size is unchanged.
	bbSlot   []int32
	bbChunks [][]Component
	built    int32 // backbone components since Reset
	nextPkt  uint64
	// defProf caches the DefaultProfile built for a nil-profile Reset,
	// so profile-less cell turnover does not rebuild it per cell.
	defProf *Profile
	// base[i*n+j] is the precomputed direct-path propagation floor
	// (geographic one-way delay × route inflation) for the pair, the
	// per-hop constant every simulated packet adds. It is derived once
	// in Reset so the hot path reads a flat array instead of
	// recomputing the float product per traversal. The inflation factor
	// is static per i↔j pair: BGP policy routing frequently takes
	// detours, so the direct path's propagation delay exceeds the
	// geographic floor and sometimes exceeds a two-hop overlay
	// composition ("the route taken by packets is frequently
	// sub-optimal", §2.2 [1, 30]). Without it, a coordinate-derived
	// latency matrix would satisfy the triangle inequality and
	// latency-optimized overlay routing could never win.
	base []Time
}

// The backbone slab grows by chunks of up to bbChunk components (128 KB).
const (
	bbChunkShift = 10
	bbChunk      = 1 << bbChunkShift
)

// New builds a simulated network over the testbed with the given profile
// and seed. A nil profile means DefaultProfile.
func New(tb *topo.Testbed, prof *Profile, seed uint64) *Network {
	nw := &Network{}
	nw.Reset(tb, prof, seed)
	return nw
}

// Reset reinitializes the network in place for a new campaign over the
// given testbed, profile, and seed, reusing the component slabs and every
// derived buffer when the mesh size matches (it then allocates nothing).
// The resulting state — every component trajectory, inflation factor, and
// packet-key stream — is identical to what New would build, so a campaign
// run through a reused Network is bit-for-bit the same as one run through
// a fresh one.
func (nw *Network) Reset(tb *topo.Testbed, prof *Profile, seed uint64) {
	if prof == nil {
		if nw.defProf == nil {
			nw.defProf = DefaultProfile()
		}
		prof = nw.defProf
	}
	n := tb.N()
	sameShape := nw.tb != nil && nw.tb.N() == n
	nw.tb, nw.prof, nw.seed = tb, prof, seed
	nw.nextPkt = 0
	if nw.global == nil {
		nw.global = &globalModulator{}
	}
	nw.global.reset(combine(seed, 0x61, 0x0BA1), prof.Global)
	nw.weather0 = nw.global.factorAt(0)
	if sameShape {
		clear(nw.bbSlot)
	} else {
		nw.access = make([]Component, n)
		nw.bbSlot = make([]int32, n*n)
		nw.bbChunks = nil
		nw.base = make([]Time, n*n)
	}
	nw.built = 0
	// Components keep pointers into params, so it is sized for every
	// set the profile can contribute before any pointer is taken.
	if sets := 3 + len(prof.AccessParams); cap(nw.params) < sets {
		nw.params = make([]paramSet, 0, sets)
		nw.accClass = make([]topo.AccessClass, 0, sets-3)
	}
	nw.params = nw.params[:0]
	for _, p := range [...]ComponentParams{prof.BackboneBase, prof.BackboneIntl, prof.BackboneFar} {
		p.MeanGood = prof.effectiveMeanGood(ClassBackbone, p.MeanGood)
		nw.params = append(nw.params, newParamSet(p, nw.global))
	}
	nw.accClass = nw.accClass[:0]
	for i := 0; i < n; i++ {
		nw.access[i].init(ComponentID(i), combine(seed, 0xACCE55, uint64(i)),
			ClassAccess, nw.accessParams(tb.Host(i).Access), nw.weather0)
	}
	// The route-inflation factors are one sequential stream over all
	// pairs, so they — unlike the components — are drawn for every pair.
	var infRng Source
	infRng.Seed(combine(seed, 0x1F1A7E, 0))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			f := drawInflation(&infRng)
			nw.base[i*n+j] = Time(float64(tb.BaseOneWay(i, j)) * f)
			nw.base[j*n+i] = Time(float64(tb.BaseOneWay(j, i)) * f)
		}
	}
}

// backbone returns the backbone component of the pair at flat index
// pair (= i*n+j, i ≠ j), or nil while the pair has none; callers build
// on nil (buildBackbone). The two halves are separate functions because
// a body holding the build call exceeds the inlining budget, and a
// non-inlined lookup costs the direct send ~6 %.
func (nw *Network) backbone(pair int) *Component {
	if s := nw.bbSlot[pair]; s != 0 {
		return &nw.bbChunks[s>>bbChunkShift][s&(bbChunk-1)]
	}
	return nil
}

// buildBackbone constructs a pair's backbone component in the next slab
// slot, exactly as a build at Reset would have: its stream is seeded
// from (seed, i, j) alone, and its identifier keeps the dense row-major
// numbering over i<j after the n access components.
func (nw *Network) buildBackbone(pair int) *Component {
	n := nw.tb.N()
	i, j := pair/n, pair%n
	if i > j {
		i, j = j, i
	}
	nw.built++
	slot := nw.built // slot 0 stays empty: it is the index's "none"
	if int(slot>>bbChunkShift) == len(nw.bbChunks) {
		// The last chunk holds just the slots that are left, so a
		// paper-size mesh does not carry a big world's granule.
		size := n*(n-1)/2 + 1 - len(nw.bbChunks)*bbChunk
		if size > bbChunk {
			size = bbChunk
		}
		nw.bbChunks = append(nw.bbChunks, make([]Component, size))
	}
	nw.bbSlot[i*n+j] = slot
	nw.bbSlot[j*n+i] = slot
	c := &nw.bbChunks[slot>>bbChunkShift][slot&(bbChunk-1)]
	rank := i*n - i*(i+1)/2 + j - i - 1
	c.init(ComponentID(n+rank), combine(nw.seed, 0xBBBB, uint64(i)<<16|uint64(j)),
		ClassBackbone, nw.backboneParams(i, j), nw.weather0)
	return c
}

// Materialised returns how many backbone components exist — the pairs
// that have carried a packet (or been looked up) since Reset.
func (nw *Network) Materialised() int { return int(nw.built) }

// accessParams returns the effective parameter set of an access class,
// adding it to the table on the class's first use in this Reset.
func (nw *Network) accessParams(class topo.AccessClass) *paramSet {
	for i, c := range nw.accClass {
		if c == class {
			return &nw.params[3+i]
		}
	}
	p, ok := nw.prof.AccessParams[class]
	if !ok {
		panic(fmt.Sprintf("netsim: no params for access class %v", class))
	}
	p.MeanGood = nw.prof.effectiveMeanGood(ClassAccess, p.MeanGood)
	nw.accClass = append(nw.accClass, class)
	nw.params = append(nw.params, newParamSet(p, nw.global))
	return &nw.params[len(nw.params)-1]
}

// drawInflation samples a route-inflation factor: most pairs take nearly
// geographic routes, a quarter detour noticeably, and a few percent take
// grossly circuitous routes (the pairs where overlay routing shines).
func drawInflation(rng *Source) float64 {
	switch u := rng.Float64(); {
	case u < 0.70:
		return rng.Uniform(1.00, 1.15)
	case u < 0.95:
		return rng.Uniform(1.15, 1.60)
	default:
		return rng.Uniform(1.60, 2.80)
	}
}

// pairBase returns the direct-path propagation floor between i and j,
// including route inflation.
func (nw *Network) pairBase(i, j int) Time {
	return nw.base[i*nw.tb.N()+j]
}

// backboneParams picks the backbone parameter set for a host pair based on
// how far the path reaches: domestic, trans-oceanic, or trans-Pacific
// (Korea, the paper's lossiest site).
func (nw *Network) backboneParams(i, j int) *paramSet {
	hi, hj := nw.tb.Host(i), nw.tb.Host(j)
	far := func(h topo.Host) bool { return h.Name == "Korea" }
	intl := func(h topo.Host) bool { return h.Kind == topo.KindIntl }
	switch {
	case far(hi) || far(hj):
		return &nw.params[2]
	case intl(hi) != intl(hj):
		return &nw.params[1]
	default:
		return &nw.params[0]
	}
}

// AccessComponent returns host i's access component (for tests and
// fault-injection tooling).
func (nw *Network) AccessComponent(i int) *Component { return &nw.access[i] }

// BackboneComponent returns the backbone component between hosts i and
// j, building it if the pair has carried no packet yet; nil when i == j.
func (nw *Network) BackboneComponent(i, j int) *Component {
	if i == j {
		return nil
	}
	pair := i*nw.tb.N() + j
	if c := nw.backbone(pair); c != nil {
		return c
	}
	return nw.buildBackbone(pair)
}

// Route describes an overlay-level path: the direct Internet path from Src
// to Dst, or the one-intermediate path via Via (the paper's overlay
// routing uses at most one intermediate node).
type Route struct {
	Src, Dst int
	// Via is the intermediate host index, or -1 for the direct path.
	Via int
}

// Direct returns the direct route from src to dst.
func Direct(src, dst int) Route { return Route{Src: src, Dst: dst, Via: -1} }

// Indirect returns the one-hop route from src to dst via an intermediate.
func Indirect(src, dst, via int) Route { return Route{Src: src, Dst: dst, Via: via} }

// IsDirect reports whether the route uses the native Internet path.
func (r Route) IsDirect() bool { return r.Via < 0 }

// Valid reports whether the route's endpoints are distinct, in range, and
// the intermediate (if any) differs from both. The unsigned compares
// fold each 0 ≤ x < n range test into one branch — this runs on every
// simulated packet.
func (r Route) Valid(n int) bool {
	if uint(r.Src) >= uint(n) || uint(r.Dst) >= uint(n) || r.Src == r.Dst {
		return false
	}
	if r.Via < 0 {
		return r.Via == -1
	}
	return uint(r.Via) < uint(n) && r.Via != r.Src && r.Via != r.Dst
}

// String renders "3→7" or "3→7 via 12".
func (r Route) String() string {
	if r.IsDirect() {
		return fmt.Sprintf("%d→%d", r.Src, r.Dst)
	}
	return fmt.Sprintf("%d→%d via %d", r.Src, r.Dst, r.Via)
}

// Outcome reports what happened to one packet.
type Outcome struct {
	// Delivered is true if the packet reached the destination.
	Delivered bool
	// Latency is the one-way delay experienced (meaningful only when
	// Delivered).
	Latency Time
	// DroppedAt identifies the component that dropped the packet, or
	// NoComponent.
	DroppedAt ComponentID
	// DropClass is the class of the dropping component (meaningful only
	// when !Delivered).
	DropClass ComponentClass
}

// NextPacketKey allocates a fresh per-packet key. Packet keys seed the
// hash-based per-packet randomness; campaign drivers may also supply their
// own unique keys to SendKeyed.
func (nw *Network) NextPacketKey() uint64 {
	nw.nextPkt++
	return combine(nw.seed, 0x9ACE7, nw.nextPkt)
}

// Send transmits one packet along the route at virtual time t using a
// freshly allocated packet key.
func (nw *Network) Send(t Time, r Route) Outcome {
	return nw.SendKeyed(t, r, nw.NextPacketKey())
}

// SendKeyed transmits one packet along the route at time t with an
// explicit packet key. Two copies of the same application packet must use
// different keys (e.g. derived from copy index); the same key and time
// always produce the same outcome.
//
// The packet crosses each component at the virtual time it actually
// arrives there (send time plus accumulated latency), so a copy routed
// indirectly observes the destination's access state tens of milliseconds
// later than the direct copy — the "temporal shifting" the paper credits
// with part of mesh routing's de-correlation (§4.3).
//
// Callers must issue sends in approximately nondecreasing time order:
// components evolve forward only, and a query earlier than a component's
// current time observes present state. Skews up to one path latency (the
// deliberate 10–20 ms dd gaps, the longer flight time of an indirect
// copy) are part of the model; schedules that jump seconds backward must
// be sorted by the caller first.
func (nw *Network) SendKeyed(t Time, r Route, pktKey uint64) Outcome {
	if !r.Valid(nw.tb.N()) {
		panic(fmt.Sprintf("netsim: invalid route %v for %d hosts", r, nw.tb.N()))
	}
	// The traversal sequence is unrolled per route shape (this is the
	// innermost simulator loop). Each underlay hop crosses the sender's
	// access complex, the pair's backbone segment (which owns the hop's
	// propagation delay), and the receiver's access complex. An
	// indirect route therefore crosses the intermediate's access twice
	// — inbound and outbound — separated by the overlay node's
	// forwarding delay; that shared crossing is a deliberate part of
	// the model (§2.4's shared edge infrastructure).
	if r.IsDirect() {
		return nw.sendDirect(t, r.Src, r.Dst, pktKey)
	}
	n := nw.tb.N()
	var lat Time
	var drop bool
	var extra Time
	step := func(c *Component, base Time, idx uint64) (*Component, bool) {
		lat += base
		drop, extra = c.Transit(t+lat, pktKey, idx)
		if drop {
			return c, true
		}
		lat += extra
		return nil, false
	}
	if c, dropped := step(&nw.access[r.Src], 0, 0); dropped {
		return Outcome{DroppedAt: c.id, DropClass: c.class}
	}
	bb := nw.backbone(r.Src*n + r.Via)
	if bb == nil {
		bb = nw.buildBackbone(r.Src*n + r.Via)
	}
	if c, dropped := step(bb, nw.pairBase(r.Src, r.Via), 1); dropped {
		return Outcome{DroppedAt: c.id, DropClass: c.class}
	}
	if c, dropped := step(&nw.access[r.Via], 0, 2); dropped {
		return Outcome{DroppedAt: c.id, DropClass: c.class}
	}
	if c, dropped := step(&nw.access[r.Via], Time(nw.prof.ForwardingDelay), 3); dropped {
		return Outcome{DroppedAt: c.id, DropClass: c.class}
	}
	bb = nw.backbone(r.Via*n + r.Dst)
	if bb == nil {
		bb = nw.buildBackbone(r.Via*n + r.Dst)
	}
	if c, dropped := step(bb, nw.pairBase(r.Via, r.Dst), 4); dropped {
		return Outcome{DroppedAt: c.id, DropClass: c.class}
	}
	if c, dropped := step(&nw.access[r.Dst], 0, 5); dropped {
		return Outcome{DroppedAt: c.id, DropClass: c.class}
	}
	return Outcome{Delivered: true, Latency: lat, DroppedAt: NoComponent}
}

// SendDirect transmits one packet along the direct src→dst path with a
// freshly allocated packet key. It is Send(t, Direct(src, dst)) with the
// traversal fused: no Route value, no per-hop closure — the three-hop
// body runs straight-line. In a big-world campaign the O(n²) probe storm
// is almost entirely direct sends, so this is the simulator's hottest
// entry point. Outcomes are bit-identical to Send on the same schedule.
func (nw *Network) SendDirect(t Time, src, dst int) Outcome {
	n := nw.tb.N()
	if uint(src) >= uint(n) || uint(dst) >= uint(n) || src == dst {
		panic(fmt.Sprintf("netsim: invalid direct route %d→%d for %d hosts",
			src, dst, n))
	}
	return nw.sendDirect(t, src, dst, nw.NextPacketKey())
}

// sendDirect is the shared fused direct-path traversal: source access
// complex, pair backbone (owning the propagation floor), destination
// access complex — the same sequence, traversal indices, and arrival
// times as SendKeyed's unrolled direct branch historically used.
func (nw *Network) sendDirect(t Time, src, dst int, pktKey uint64) Outcome {
	c := &nw.access[src]
	drop, extra := c.Transit(t, pktKey, 0)
	if drop {
		return Outcome{DroppedAt: c.id, DropClass: c.class}
	}
	lat := extra
	pair := src*nw.tb.N() + dst
	c = nw.backbone(pair)
	if c == nil {
		c = nw.buildBackbone(pair)
	}
	lat += nw.base[pair]
	drop, extra = c.Transit(t+lat, pktKey, 1)
	if drop {
		return Outcome{DroppedAt: c.id, DropClass: c.class}
	}
	lat += extra
	c = &nw.access[dst]
	drop, extra = c.Transit(t+lat, pktKey, 2)
	if drop {
		return Outcome{DroppedAt: c.id, DropClass: c.class}
	}
	return Outcome{Delivered: true, Latency: lat + extra, DroppedAt: NoComponent}
}

// BaseLatency returns the uncongested one-way latency of a route
// (propagation floors plus forwarding delay; no queueing or jitter).
func (nw *Network) BaseLatency(r Route) Time {
	if r.IsDirect() {
		return nw.pairBase(r.Src, r.Dst)
	}
	return nw.pairBase(r.Src, r.Via) + nw.pairBase(r.Via, r.Dst) +
		Time(nw.prof.ForwardingDelay)
}
