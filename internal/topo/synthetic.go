package topo

import (
	"fmt"
	"time"

	"repro/internal/detmath"
)

// Synthetic topologies scale the RON2003 testbed's host-class mix to
// arbitrary overlay sizes. The generator is pure: the same (n, seed)
// always yields the same hosts and the same base latency matrix, in any
// process — overlay-size sweep cells, shard workers, and merge-only
// coordinators all re-derive identical worlds from the grid coordinates
// alone (synthetic_test.go pins cross-process determinism).
//
// Hosts are embedded geographically by drawing a metro area (weighted
// toward the real testbed's footprint: US coasts, Europe, East Asia)
// and jittering the city coordinates, so the latency matrix keeps the
// paper's heterogeneous trans-US / trans-Atlantic / trans-Pacific
// spread instead of a uniform mesh. Per-pair route stretch varies
// deterministically (BGP detours), which gives the synthetic world the
// same triangle-inequality violations that make overlay routing win on
// the real Internet; without them a coordinate-derived matrix would be
// metric and indirection could never help latency.

// MaxSyntheticNodes bounds generated overlay sizes. The cap exists to
// turn a typo'd -nodes value into an early error instead of an O(n²)
// allocation storm; it matches the selector's mesh cap.
const MaxSyntheticNodes = 16384

// DefaultSyntheticSeed is the generator seed used by Synthetic. It is a
// fixed constant — not a campaign seed — so every cell of a sweep at
// the same overlay size shares one world and snapshot restoration can
// re-derive the topology from the overlay size alone.
const DefaultSyntheticSeed = 0x50_4F_4C_4F // "POLO"

// synMetro is one metro area hosts can be embedded near.
type synMetro struct {
	lon, lat float64
	intl     bool
}

// synMetros is the metro pool. US metros carry double weight (they are
// listed twice as often as the real testbed is US-heavy); international
// metros host the KindIntl population.
var synMetros = []synMetro{
	{-71.06, 42.36, false},  // Boston
	{-73.99, 40.73, false},  // New York
	{-77.04, 38.91, false},  // Washington DC
	{-79.94, 40.44, false},  // Pittsburgh
	{-84.39, 33.75, false},  // Atlanta
	{-87.63, 41.88, false},  // Chicago
	{-96.80, 32.78, false},  // Dallas
	{-104.99, 39.74, false}, // Denver
	{-111.89, 40.76, false}, // Salt Lake City
	{-117.23, 32.88, false}, // San Diego
	{-118.24, 34.05, false}, // Los Angeles
	{-122.27, 37.56, false}, // Bay Area
	{-122.33, 47.61, false}, // Seattle
	{4.90, 52.37, true},     // Amsterdam
	{-0.13, 51.51, true},    // London
	{8.68, 50.11, true},     // Frankfurt
	{22.15, 65.58, true},    // Lulea
	{127.36, 36.37, true},   // Daejeon
	{139.69, 35.69, true},   // Tokyo
}

// synKindMix is the RON2003 Table 2 host-class census the generator
// scales: 7 universities, 10 ISPs, 5 companies, 3 broadband, 5
// international out of 30.
var synKindMix = []struct {
	kind  Kind
	count int
}{
	{KindISP, 10},
	{KindUniversity, 7},
	{KindCompany, 5},
	{KindIntl, 5},
	{KindBroadband, 3},
}

// synRNG is a tiny deterministic stream: detmath.Mix of a +1 counter.
type synRNG struct{ state uint64 }

func (r *synRNG) next() uint64 {
	r.state++
	return detmath.Mix(r.state)
}

func (r *synRNG) float64() float64 { return detmath.Unit(r.next()) }

func (r *synRNG) intn(n int) int {
	return int(r.next() % uint64(n))
}

// ValidateSyntheticSize checks a generated overlay size, returning a
// descriptive error for out-of-range values so CLI flags and manifests
// fail before any O(n²) state is allocated.
func ValidateSyntheticSize(n int) error {
	if n < 2 || n > MaxSyntheticNodes {
		return fmt.Errorf("topo: synthetic overlay size %d out of range [2,%d]", n, MaxSyntheticNodes)
	}
	return nil
}

// Synthetic returns the canonical n-host synthetic testbed (the
// DefaultSyntheticSeed world) — what the overlaysize sweep axis runs
// over. It panics on out-of-range n; callers validate with
// ValidateSyntheticSize first.
func Synthetic(n int) *Testbed { return SyntheticSeeded(n, DefaultSyntheticSeed) }

// SyntheticSeeded generates an n-host testbed from an explicit
// generator seed. Identical (n, seed) yield identical testbeds.
func SyntheticSeeded(n int, seed uint64) *Testbed {
	if err := ValidateSyntheticSize(n); err != nil {
		panic(err)
	}
	rng := &synRNG{state: detmath.Mix(seed) ^ uint64(n)<<20}
	hosts := make([]Host, 0, n)
	total := 0
	for _, mix := range synKindMix {
		total += mix.count
	}
	// Largest-remainder apportionment of n hosts over the class census,
	// so every size keeps Table 2's proportions as closely as integers
	// allow and the counts are independent of RNG state.
	counts := make([]int, len(synKindMix))
	assigned := 0
	for i, mix := range synKindMix {
		counts[i] = n * mix.count / total
		assigned += counts[i]
	}
	for i := 0; assigned < n; i = (i + 1) % len(counts) {
		counts[i]++
		assigned++
	}
	for ki, mix := range synKindMix {
		for c := 0; c < counts[ki]; c++ {
			hosts = append(hosts, synHost(rng, mix.kind, len(hosts), n))
		}
	}
	return newSynthetic(hosts, seed)
}

// synHost draws one host of the given kind: a metro, a coordinate
// jitter, and an access class following the real testbed's per-kind
// access distribution.
func synHost(rng *synRNG, kind Kind, idx, n int) Host {
	var metro synMetro
	for {
		metro = synMetros[rng.intn(len(synMetros))]
		if metro.intl == (kind == KindIntl) {
			break
		}
	}
	lon := metro.lon + (rng.float64()-0.5)*0.8
	lat := metro.lat + (rng.float64()-0.5)*0.8
	var access AccessClass
	switch kind {
	case KindUniversity:
		access = AccessBackboneGrade
	case KindISP:
		// Table 1: 6 of 10 ISPs are small regional providers, the rest
		// backbone-grade colos.
		if rng.float64() < 0.6 {
			access = AccessSmallISP
		} else {
			access = AccessBackboneGrade
		}
	case KindCompany:
		access = AccessEnterprise
	case KindBroadband:
		access = AccessBroadband
	case KindIntl:
		if rng.float64() < 0.6 {
			access = AccessEnterprise
		} else {
			access = AccessBackboneGrade
		}
	}
	digits := 1
	for p := 10; p <= n-1; p *= 10 {
		digits++
	}
	return Host{
		Name:      fmt.Sprintf("S%0*d", digits, idx),
		Location:  "synthetic",
		Kind:      kind,
		Access:    access,
		Internet2: kind == KindUniversity,
		LonDeg:    lon,
		LatDeg:    lat,
	}
}

// Per-pair route stretch for synthetic worlds: real inter-domain routes
// detour unevenly, so the stretch factor varies per pair around the
// calibrated routeStretch. The spread is wide enough that a meaningful
// fraction of triples violate the triangle inequality (the overlay's
// opportunity) while staying within the bound
// TestSyntheticTriangleViolationRate enforces.
const (
	synStretchMin = 1.30
	synStretchMax = 2.60
)

// synPairStretch derives the symmetric stretch factor of pair (i,j)
// from the generator seed, independent of draw order.
func synPairStretch(seed uint64, i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	u := detmath.Unit(detmath.Mix(seed ^ 0xB6D0_5E7C ^ uint64(i)<<32 ^ uint64(j)))
	return synStretchMin + u*(synStretchMax-synStretchMin)
}

// newSynthetic builds the testbed over generated hosts with per-pair
// stretch replacing the constant routeStretch of New.
func newSynthetic(hosts []Host, seed uint64) *Testbed {
	tb := &Testbed{hosts: hosts}
	n := len(hosts)
	tb.baseOneWay = make([][]time.Duration, n)
	flat := make([]time.Duration, n*n)
	for i := range tb.baseOneWay {
		tb.baseOneWay[i], flat = flat[:n], flat[n:]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			km := greatCircleKM(hosts[i].LatDeg, hosts[i].LonDeg,
				hosts[j].LatDeg, hosts[j].LonDeg)
			ms := km / fiberKMPerMS * synPairStretch(seed, i, j)
			d := time.Duration(ms*float64(time.Millisecond)) +
				accessExtra(hosts[i].Access) + accessExtra(hosts[j].Access) +
				500*time.Microsecond // forwarding/processing floor
			tb.baseOneWay[i][j] = d
			tb.baseOneWay[j][i] = d
		}
	}
	return tb
}
