package route

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestLandmarkPlanShape(t *testing.T) {
	for _, n := range []int{2, 9, 30, 100, 1024} {
		p := NewLandmarkPlan(n)
		if p.N() != n {
			t.Fatalf("n=%d: N() = %d", n, p.N())
		}
		lms := p.landmarks
		wantL := 0
		for wantL*wantL < n {
			wantL++
		}
		if len(lms) != wantL {
			t.Fatalf("n=%d: %d landmarks, want ⌈√n⌉ = %d", n, len(lms), wantL)
		}
		seen := map[int32]bool{}
		for i, lm := range lms {
			if lm < 0 || int(lm) >= n {
				t.Fatalf("n=%d: landmark %d out of range", n, lm)
			}
			if seen[lm] {
				t.Fatalf("n=%d: duplicate landmark %d", n, lm)
			}
			seen[lm] = true
			if i > 0 && lms[i-1] >= lm {
				t.Fatalf("n=%d: landmarks not ascending: %v", n, lms)
			}
			if !p.isLM[lm] {
				t.Fatalf("n=%d: isLM[%d] = false", n, lm)
			}
		}
		// Deterministic: the plan derives from n alone.
		q := NewLandmarkPlan(n)
		for i := range lms {
			if q.landmarks[i] != lms[i] {
				t.Fatalf("n=%d: plans differ across constructions", n)
			}
		}
	}
}

func TestLandmarkPlanProbes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 9, 10, 64, 257} {
		p := NewLandmarkPlan(n)
		count := 0
		// linkSlot must number exactly the probed links, without gaps
		// or collisions: the selector sizes and indexes its link slab
		// by it.
		taken := make([]bool, p.PlannedLinks())
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				probes := p.Probes(s, d)
				wantRing := d == (s+1)%n || d == (s-1+n)%n
				want := s != d && (p.isLM[s] || p.isLM[d] || wantRing)
				if probes != want {
					t.Fatalf("n=%d: Probes(%d,%d) = %v, want %v", n, s, d, probes, want)
				}
				slot := p.linkSlot(s, d)
				if !probes {
					if slot != -1 {
						t.Fatalf("n=%d: unprobed link %d→%d has slot %d", n, s, d, slot)
					}
					continue
				}
				if slot < 0 || slot >= len(taken) || taken[slot] {
					t.Fatalf("n=%d: linkSlot(%d,%d) = %d is out of range or already taken (%d planned links)", n, s, d, slot, len(taken))
				}
				taken[slot] = true
				count++
			}
		}
		if count != p.PlannedLinks() {
			t.Fatalf("n=%d: counted %d planned links, PlannedLinks() = %d", n, count, p.PlannedLinks())
		}
		if full := n * (n - 1); n >= 64 && count >= full/2 {
			t.Fatalf("n=%d: plan probes %d of %d links — not sub-quadratic", n, count, full)
		}
	}
}

func TestValidateMeshSize(t *testing.T) {
	for _, n := range []int{2, 30, MaxMeshNodes} {
		if err := ValidateMeshSize(n); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
	err := ValidateMeshSize(MaxMeshNodes + 1)
	if err == nil || !strings.Contains(err.Error(), "MaxMeshNodes") {
		t.Errorf("over-limit error %v must name MaxMeshNodes", err)
	}
	if err := ValidateMeshSize(1); err == nil {
		t.Error("n=1 accepted")
	}
}

// driveRandom feeds one random probe batch to both selectors.
func driveRandom(rng *rand.Rand, sels []*Selector, n, probes int, plan *LandmarkPlan) {
	for k := 0; k < probes; k++ {
		s, d := rng.Intn(n), rng.Intn(n)
		if s == d {
			continue
		}
		if plan != nil && !plan.Probes(s, d) {
			continue
		}
		lost := rng.Float64() < 0.3
		lat := time.Duration(5+rng.Intn(150)) * time.Millisecond
		if lost {
			lat = 0
		}
		for _, sel := range sels {
			sel.Record(s, d, lost, lat)
		}
	}
}

// TestIncrementalSnapshotMatchesFullRescan is the incremental contract:
// a selector using dirty-link tracking across refreshes must emit tables
// byte-identical to a twin forced to rescan every pair from scratch each
// refresh, across randomized campaigns — with and without hysteresis,
// under both probing policies, including refreshes with no new probes.
func TestIncrementalSnapshotMatchesFullRescan(t *testing.T) {
	for _, hyst := range []float64{0, 0.25} {
		for _, usePlan := range []bool{false, true} {
			const n = 24
			rng := rand.New(rand.NewSource(int64(7 + int(hyst*100))))
			inc := NewSelectorWindow(n, 50)
			full := NewSelectorWindow(n, 50)
			var plan *LandmarkPlan
			if usePlan {
				plan = NewLandmarkPlan(n)
				inc.SetPlan(plan)
				full.SetPlan(plan)
			}
			if hyst > 0 {
				inc.SetHysteresis(hyst)
				full.SetHysteresis(hyst)
			}
			var ti, tf Tables
			for round := 0; round < 60; round++ {
				if round%7 != 6 { // every 7th refresh has no new probes
					driveRandom(rng, []*Selector{inc, full}, n, 300, plan)
				}
				inc.SnapshotInto(&ti)
				// Invalidate the twin's caches so it recomputes every
				// metric and rescans every pair — the reference path.
				full.metricsValid = false
				full.SnapshotInto(&tf)
				for src := 0; src < n; src++ {
					for dst := 0; dst < n; dst++ {
						if ti.LossVia(src, dst) != tf.LossVia(src, dst) ||
							ti.LatVia(src, dst) != tf.LatVia(src, dst) {
							t.Fatalf("hyst=%v plan=%v round %d: (%d,%d) incremental (loss %d, lat %d) != full (loss %d, lat %d)",
								hyst, usePlan, round, src, dst,
								ti.LossVia(src, dst), ti.LatVia(src, dst),
								tf.LossVia(src, dst), tf.LatVia(src, dst))
						}
					}
				}
			}
		}
	}
}

// TestSnapshotSteadyStateAllocs pins the refresh loop's allocation-free
// steady state: once tables and scratch exist, repeated
// probe-then-snapshot rounds must not allocate.
func TestSnapshotSteadyStateAllocs(t *testing.T) {
	const n = 32
	sel := NewSelectorWindow(n, 50)
	rng := rand.New(rand.NewSource(3))
	var tables Tables
	driveRandom(rng, []*Selector{sel}, n, 2000, nil)
	sel.SnapshotInto(&tables) // size everything
	allocs := testing.AllocsPerRun(20, func() {
		driveRandom(rng, []*Selector{sel}, n, 200, nil)
		sel.SnapshotInto(&tables)
	})
	if allocs != 0 {
		t.Fatalf("steady-state refresh allocates %.1f times per round", allocs)
	}
}

func TestSetPlanValidation(t *testing.T) {
	sel := NewSelectorWindow(8, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("SetPlan with mismatched n did not panic")
		}
	}()
	sel.SetPlan(NewLandmarkPlan(9))
}

// TestPlanRestrictsVias: under a plan, every selected via must be a
// landmark (or the direct path).
func TestPlanRestrictsVias(t *testing.T) {
	const n = 30
	plan := NewLandmarkPlan(n)
	sel := NewSelectorWindow(n, 50)
	sel.SetPlan(plan)
	rng := rand.New(rand.NewSource(17))
	driveRandom(rng, []*Selector{sel}, n, 20000, plan)
	var tables Tables
	sel.SnapshotInto(&tables)
	checkVia := func(kind string, src, dst, via int) {
		if via >= 0 && via != dst && !plan.isLM[via] {
			t.Fatalf("%s(%d,%d) selected non-landmark via %d", kind, src, dst, via)
		}
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			checkVia("LossVia", src, dst, tables.LossVia(src, dst))
			checkVia("LatVia", src, dst, tables.LatVia(src, dst))
			checkVia("BestLoss", src, dst, sel.BestLoss(src, dst).Via)
			checkVia("BestLat", src, dst, sel.BestLat(src, dst).Via)
		}
	}
}
