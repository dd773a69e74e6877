package route

import (
	"fmt"
	"math"
	"sort"
)

// MaxMeshNodes caps selector mesh sizes. The selector's routing tables
// are sized at construction from n, and its link slab and metrics cache
// at first use from n or the plan — growth past the cap is an explicit
// error up front (clear message, no allocation), never an implicit
// slice regrowth mid-campaign.
const MaxMeshNodes = 1 << 14

// ValidateMeshSize checks that an n-node mesh fits the selector's
// construction-time capacity model.
func ValidateMeshSize(n int) error {
	if n < 2 {
		return fmt.Errorf("route: mesh of %d nodes is below the 2-node minimum", n)
	}
	if n > MaxMeshNodes {
		return fmt.Errorf(
			"route: mesh of %d nodes exceeds MaxMeshNodes (%d): the selector sizes its routing tables from n at construction; raise MaxMeshNodes deliberately instead of relying on implicit growth",
			n, MaxMeshNodes)
	}
	return nil
}

// LandmarkPlan is the probe/scan plan of the landmark policy on an
// n-node overlay: a deterministic ⌈√n⌉-node landmark subset that every
// node probes (and that probes every node), plus each node's two ring
// neighbors so non-landmark pairs keep a direct estimate. Probed links
// total ≈ 2n√n instead of n(n-1), and via candidates are restricted to
// the landmark set, which is what turns the selector's O(n) per-pair
// via scan into O(√n).
//
// The plan derives from n alone (a fixed internal seed, never the
// campaign seed), so every cell, replica, and shard of a sweep at the
// same overlay size agrees on the landmark set — a requirement for
// byte-identical merges.
type LandmarkPlan struct {
	n         int
	landmarks []int32 // ascending
	isLM      []bool
	lmIndex   []int32 // node -> position in landmarks, -1 otherwise
	// rowBase[src] is the slot of src's first planned link in the
	// compact numbering of linkSlot; rowBase[n] is the planned-link
	// count.
	rowBase []int32
}

// landmarkPlanSeed fixes the landmark choice per overlay size.
const landmarkPlanSeed = 0x4C_4D_53_45 // "LMSE"

// planSplitMix is splitmix64 (private copy; see topo's for rationale).
func planSplitMix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// NewLandmarkPlan builds the canonical landmark plan for an n-node
// overlay: L = ⌈√n⌉ landmarks chosen by a seeded partial Fisher-Yates
// over the node set. Panics on sizes outside the selector's mesh cap.
func NewLandmarkPlan(n int) *LandmarkPlan {
	if err := ValidateMeshSize(n); err != nil {
		panic(err)
	}
	L := int(math.Ceil(math.Sqrt(float64(n))))
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	state := planSplitMix(uint64(landmarkPlanSeed) ^ uint64(n)<<24)
	for i := 0; i < L; i++ {
		state = planSplitMix(state)
		j := i + int(state%uint64(n-i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	lms := perm[:L]
	sort.Slice(lms, func(a, b int) bool { return lms[a] < lms[b] })
	p := &LandmarkPlan{
		n:         n,
		landmarks: lms,
		isLM:      make([]bool, n),
		lmIndex:   make([]int32, n),
	}
	for i := range p.lmIndex {
		p.lmIndex[i] = -1
	}
	for i, lm := range lms {
		p.isLM[lm] = true
		p.lmIndex[lm] = int32(i)
	}
	p.rowBase = make([]int32, n+1)
	for src := 0; src < n; src++ {
		row := n - 1 // a landmark probes every other node
		if !p.isLM[src] {
			row = L
			next, prev := p.ring(src)
			if !p.isLM[next] {
				row++
			}
			if !p.isLM[prev] {
				row++
			}
		}
		p.rowBase[src+1] = p.rowBase[src] + int32(row)
	}
	return p
}

// ring returns src's two ring neighbours.
func (p *LandmarkPlan) ring(src int) (next, prev int) {
	next, prev = src+1, src-1
	if next == p.n {
		next = 0
	}
	if prev < 0 {
		prev = p.n - 1
	}
	return next, prev
}

// linkSlot numbers the planned links 0..PlannedLinks()-1 by plan
// arithmetic, row-major: a landmark's row holds every other node in
// node order; a non-landmark's row holds the landmarks in landmark
// order, then its next and previous ring neighbours where those are not
// landmarks themselves. Unplanned links (and the diagonal) are -1. The
// selector stores per-link state by this number, so a plan's state is
// sized by the links it probes, not by n².
func (p *LandmarkPlan) linkSlot(src, dst int) int {
	if src == dst {
		return -1
	}
	base := int(p.rowBase[src])
	if p.isLM[src] {
		if dst > src {
			dst--
		}
		return base + dst
	}
	if li := p.lmIndex[dst]; li >= 0 {
		return base + int(li)
	}
	// A non-landmark has distinct ring neighbours: next == prev only
	// at n = 2, where both nodes are landmarks.
	switch next, prev := p.ring(src); dst {
	case next:
		return base + len(p.landmarks)
	case prev:
		if p.isLM[next] {
			return base + len(p.landmarks)
		}
		return base + len(p.landmarks) + 1
	}
	return -1
}

// N returns the overlay size the plan covers.
func (p *LandmarkPlan) N() int { return p.n }

// Probes reports whether the directed link src→dst is probed under the
// plan: any link touching a landmark, plus each node's ring neighbors
// (so every pair keeps some direct estimate even far from landmarks).
func (p *LandmarkPlan) Probes(src, dst int) bool {
	if src == dst {
		return false
	}
	if p.isLM[src] || p.isLM[dst] {
		return true
	}
	d := src - dst
	if d < 0 {
		d = -d
	}
	return d == 1 || d == p.n-1
}

// PlannedLinks returns how many directed links the plan probes — the
// probe budget the policy buys relative to full mesh's n(n-1), counted
// once at construction.
func (p *LandmarkPlan) PlannedLinks() int { return int(p.rowBase[p.n]) }
