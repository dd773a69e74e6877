package route

import (
	"math/rand"
	"reflect"
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

// TestIncrementalSnapshotMatchesFullRescan is the snapshot contract: a
// selector refreshed after each probe batch — a rescan of every pair, or
// a no-op when nothing was recorded since the last refresh — must emit
// tables byte-identical to a twin forced to rescan every pair from
// scratch each refresh, across randomized campaigns — with and without
// hysteresis, under both probing policies, including refreshes with no
// new probes, where the no-op must keep what the twin's rescan derives.
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
							t.Fatalf("hyst=%v plan=%v round %d: (%d,%d) refreshed (loss %d, lat %d) != full (loss %d, lat %d)",
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

// allLandmarkPlan is the plan that makes every node a landmark: it
// probes every link and scans every node as a via, as full mesh does,
// but through the plan's compact link numbering and landmark row table.
func allLandmarkPlan(n int) *LandmarkPlan {
	p := &LandmarkPlan{n: n, landmarks: make([]int32, n), isLM: make([]bool, n),
		lmIndex: make([]int32, n), rowBase: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		p.landmarks[i], p.isLM[i], p.lmIndex[i] = int32(i), true, int32(i)
		p.rowBase[i+1] = int32((i + 1) * (n - 1))
	}
	return p
}

// TestAllLandmarkPlanMatchesFullMesh: a plan with every node a landmark
// restricts nothing, so a selector under it must keep exactly the tables
// of a full-mesh one fed the same probes, and count the same moved
// entries at every Refresh — after new probes, after the fallback
// latency changes, and with no new probes — with damping
// on and off. Both policies run the one rescan; only where a source's
// row is read from differs.
func TestAllLandmarkPlanMatchesFullMesh(t *testing.T) {
	if !reflect.DeepEqual(allLandmarkPlan(2), NewLandmarkPlan(2)) {
		t.Fatal("at n = 2 the canonical plan should already make every node a landmark")
	}
	for _, n := range []int{2, 3, 5, 17, 30} {
		for _, hyst := range []float64{0, 0.25} {
			mesh, lm := NewSelectorWindow(n, 20), NewSelectorWindow(n, 20)
			lm.SetPlan(allLandmarkPlan(n))
			mesh.SetHysteresis(hyst)
			lm.SetHysteresis(hyst)
			rng := rand.New(rand.NewSource(int64(n)))
			var moved int64
			for round := 0; round < 16; round++ {
				if round%5 != 4 {
					driveRandom(rng, []*Selector{mesh, lm}, n, 10*n, nil)
				}
				if round%6 == 3 {
					fb := time.Duration(20+10*(round%4)) * time.Millisecond
					mesh.setFallbackLatency(fb)
					lm.setFallbackLatency(fb)
				}
				// A run of losses kills a link now and then.
				if src, dst := rng.Intn(n), rng.Intn(n); src != dst && round%3 == 1 {
					for i := 0; i < DefaultDeadThreshold; i++ {
						mesh.Record(src, dst, true, 0)
						lm.Record(src, dst, true, 0)
					}
				}
				gm, gl := mesh.Refresh(), lm.Refresh()
				if gm != gl {
					t.Fatalf("n=%d hyst=%v round %d: full mesh moved %d entries, the all-landmark plan %d", n, hyst, round, gm, gl)
				}
				if d := mesh.Tables().Diff(lm.Tables()); d != 0 {
					t.Fatalf("n=%d hyst=%v round %d: tables differ in %d entries", n, hyst, round, d)
				}
				moved += gm
			}
			if moved == 0 && n > 2 {
				t.Fatalf("n=%d hyst=%v: no table entry ever moved; the comparison is vacuous", n, hyst)
			}
		}
	}
}

// A refresh script is FuzzRefreshMatchesReference's input: a header of
// two bytes — n = 3 + b0 mod 38, then b1: bit 0 the landmark plan, bit 1
// a hysteresis margin of 0.25, bits 2–3 the fallback latency (10–40 ms),
// bit 4 (with bit 0) a late plan: set only at the second refresh, over a
// slab carved full-mesh whose every link is recorded, so paths held from
// the first may run via nodes the plan does not scan — and then steps. A byte ≥ refreshStep refreshes and checks; any other
// is a record op followed by its source and destination bytes (each mod
// n): bit 0 lost, bits 1–2 the repeat count less one (four losses kill a
// link), bits 3–4 the latency of a delivered probe, 10–40 ms like the
// fallback so that ties are common.
const refreshStep = 0xe0

// refreshRecord encodes one record step; lat indexes 10–40 ms.
func refreshRecord(src, dst int, lost bool, repeat, lat int) []byte {
	op := byte(repeat-1)<<1 | byte(lat)<<3
	if lost {
		op |= 1
	}
	return []byte{op, byte(src), byte(dst)}
}

// incrementalScript is TestIncrementalSnapshotMatchesFullRescan's
// schedule as a refresh script: the same rng and draws, so the same
// pairs, losses and refresh points, with each latency folded into the
// script's four values.
func incrementalScript(cfg byte, hyst float64) []byte {
	const n = 24
	rng := rand.New(rand.NewSource(int64(7 + int(hyst*100))))
	var plan *LandmarkPlan
	if cfg&1 != 0 {
		plan = NewLandmarkPlan(n)
	}
	script := []byte{n - 3, cfg}
	for round := 0; round < 60; round++ {
		for k := 0; round%7 != 6 && k < 300; k++ {
			s, d := rng.Intn(n), rng.Intn(n)
			if s == d || plan != nil && !plan.Probes(s, d) {
				continue
			}
			lost, lat := rng.Float64() < 0.3, 5+rng.Intn(150)
			script = append(script, refreshRecord(s, d, lost, 1, lat/40)...)
		}
		script = append(script, refreshStep)
	}
	return script
}

// planBestLatScript is TestPlanLatScanMatchesBestLat's schedule as a
// refresh script at n = 40, the largest script size, which has the same
// seven landmarks as its n = 45: six rounds, each recording two in three
// planned links once, a tenth of them four losses in a row.
func planBestLatScript(cfg byte) []byte {
	const n = 40
	plan := NewLandmarkPlan(n)
	rng := rand.New(rand.NewSource(8))
	script := []byte{n - 3, cfg | 1}
	for round := 0; round < 6; round++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if plan.Probes(src, dst) && rng.Intn(3) > 0 {
					lat, lost := rng.Intn(4), rng.Intn(4) > 1
					if rng.Intn(10) == 0 {
						script = append(script, refreshRecord(src, dst, true, 4, lat)...)
						continue
					}
					script = append(script, refreshRecord(src, dst, lost, 1, lat)...)
				}
			}
		}
		script = append(script, refreshStep)
	}
	return script
}

// FuzzRefreshMatchesReference runs an arbitrary refresh script on a
// selector and on a twin forced to a full rescan at every refresh, and
// after each refresh demands equal tables and equal Refresh counts, so a
// refresh with nothing recorded since the last must be a no-op that
// keeps exactly the tables a rescan derives. Every entry must also equal
// BestLoss/BestLat's walk over the estimates, or with hysteresis on the
// damped twin's — BestLossStable/BestLatStable of a third selector fed
// the same probes, queried in destination-major order — so a held path
// scored from the rescan's row, column and direct entries is held to one
// scored from the estimates. Under the plan only the links it probes are
// recorded, as campaigns do. The schedules of
// TestIncrementalSnapshotMatchesFullRescan (both policies, both margins)
// and TestPlanLatScanMatchesBestLat seed the corpus.
func FuzzRefreshMatchesReference(f *testing.F) {
	for _, cfg := range []byte{0, 1} {
		f.Add(incrementalScript(cfg|2<<2, 0))
		f.Add(incrementalScript(cfg|1<<1|2<<2, 0.25))
	}
	late := incrementalScript(1<<1|2<<2, 0.25)
	late[1] |= 1 | 1<<4
	f.Add(late)
	f.Add(planBestLatScript(0))
	f.Add(planBestLatScript(1 << 2))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		n, cfg := 3+int(script[0])%38, script[1]
		var plan *LandmarkPlan
		if cfg&1 != 0 {
			plan = NewLandmarkPlan(n)
		}
		hyst := 0.0
		if cfg&2 != 0 {
			hyst = 0.25
		}
		fallback := time.Duration(10*(1+int(cfg>>2&3))) * time.Millisecond
		late := plan != nil && cfg&(1<<4) != 0
		inc, full, twin := NewSelectorWindow(n, 0), NewSelectorWindow(n, 0), NewSelectorWindow(n, 0)
		for _, sel := range []*Selector{inc, full, twin} {
			if !late {
				sel.SetPlan(plan)
			}
			sel.SetHysteresis(hyst)
			sel.setFallbackLatency(fallback)
		}
		refreshes := 0
		check := func(step int) {
			if refreshes++; late && refreshes == 2 {
				for _, sel := range []*Selector{inc, full, twin} {
					sel.SetPlan(plan)
				}
			}
			full.setFallbackLatency(fallback) // the next Refresh rescans every pair
			if got, want := inc.Refresh(), full.Refresh(); got != want {
				t.Fatalf("step %d: Refresh moved %d entries, the full rescan %d", step, got, want)
			}
			tables := inc.Tables()
			if d := tables.Diff(full.Tables()); d != 0 {
				t.Fatalf("step %d: tables differ from the full rescan's in %d entries", step, d)
			}
			if hyst > 0 {
				for dst := 0; dst < n; dst++ {
					for src := 0; src < n; src++ {
						if src == dst {
							continue
						}
						if got, want := tables.LossVia(src, dst), twin.BestLossStable(src, dst).Via; got != want {
							t.Fatalf("step %d: LossVia(%d,%d) = %d, BestLossStable = %d", step, src, dst, got, want)
						}
						if got, want := tables.LatVia(src, dst), twin.BestLatStable(src, dst).Via; got != want {
							t.Fatalf("step %d: LatVia(%d,%d) = %d, BestLatStable = %d", step, src, dst, got, want)
						}
					}
				}
				return
			}
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					if got, want := tables.LossVia(src, dst), inc.BestLoss(src, dst).Via; got != want {
						t.Fatalf("step %d: LossVia(%d,%d) = %d, BestLoss = %d", step, src, dst, got, want)
					}
					if got, want := tables.LatVia(src, dst), inc.BestLat(src, dst).Via; got != want {
						t.Fatalf("step %d: LatVia(%d,%d) = %d, BestLat = %d", step, src, dst, got, want)
					}
				}
			}
		}
		for i := 2; i < len(script); i++ {
			op := script[i]
			if op >= refreshStep {
				check(i)
				continue
			}
			if i+2 >= len(script) {
				break
			}
			src, dst := int(script[i+1])%n, int(script[i+2])%n
			i += 2
			if src == dst || plan != nil && !late && !plan.Probes(src, dst) {
				continue
			}
			lost := op&1 != 0
			lat := time.Duration(10*(1+int(op>>3&3))) * time.Millisecond
			if lost {
				lat = 0
			}
			for range 1 + int(op>>1&3) {
				inc.Record(src, dst, lost, lat)
				full.Record(src, dst, lost, lat)
				twin.Record(src, dst, lost, lat)
			}
		}
		check(len(script))
	})
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
