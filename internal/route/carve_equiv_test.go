package route

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// densePlan is the dense reference's plan: plan's landmarks, so the
// same via candidates, but every row numbered as a landmark's (all n-1
// other nodes in node order), so a selector under it holds an estimate
// for every ordered pair. Fed only plan's links, it answers as plan's
// compact carve must.
func densePlan(plan *LandmarkPlan) *LandmarkPlan {
	n := plan.n
	p := &LandmarkPlan{n: n, landmarks: plan.landmarks, isLM: make([]bool, n),
		lmIndex: plan.lmIndex, rowBase: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		p.isLM[i] = true
		p.rowBase[i+1] = int32((i + 1) * (n - 1))
	}
	return p
}

// compareSelectors holds every query the campaign makes to equality on
// every ordered pair, including pairs whose direct link is unplanned.
func compareSelectors(t *testing.T, label string, got, want *Selector) {
	t.Helper()
	n := got.N()
	var tg, tw Tables
	got.SnapshotInto(&tg)
	want.SnapshotInto(&tw)
	var kg, kw []Choice
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			if tg.LossVia(src, dst) != tw.LossVia(src, dst) || tg.LatVia(src, dst) != tw.LatVia(src, dst) {
				t.Fatalf("%s: tables differ at (%d,%d): loss %d vs %d, lat %d vs %d", label, src, dst,
					tg.LossVia(src, dst), tw.LossVia(src, dst), tg.LatVia(src, dst), tw.LatVia(src, dst))
			}
			if g, w := got.BestLoss(src, dst), want.BestLoss(src, dst); g != w {
				t.Fatalf("%s: BestLoss(%d,%d) = %+v, dense reference %+v", label, src, dst, g, w)
			}
			if g, w := got.BestLat(src, dst), want.BestLat(src, dst); g != w {
				t.Fatalf("%s: BestLat(%d,%d) = %+v, dense reference %+v", label, src, dst, g, w)
			}
			kg = got.KBestDisjointAppend(kg[:0], src, dst, 3)
			kw = want.KBestDisjointAppend(kw[:0], src, dst, 3)
			if len(kg) != len(kw) {
				t.Fatalf("%s: KBestDisjoint(%d,%d) returns %d paths, dense reference %d", label, src, dst, len(kg), len(kw))
			}
			for i := range kg {
				if kg[i] != kw[i] {
					t.Fatalf("%s: KBestDisjoint(%d,%d)[%d] = %+v, dense reference %+v", label, src, dst, i, kg[i], kw[i])
				}
			}
		}
	}
}

// TestPlanCarveMatchesDenseReference: a selector whose link state is
// carved for the landmark plan answers exactly as one holding an
// estimate per ordered pair under the same landmarks (densePlan), fed
// the same records — through refreshes, hysteresis, a Reset that
// changes the window, and plan→mesh→plan turnover on one selector (an
// arena's life). The schedule is FuzzPlanCarveMatchesDenseReference's
// first seed.
func TestPlanCarveMatchesDenseReference(t *testing.T) {
	plan := NewLandmarkPlan(carveSizes[0])
	unplanned := 0
	for s := 0; s < plan.n; s++ {
		for d := 0; d < plan.n; d++ {
			if s != d && !plan.Probes(s, d) {
				unplanned++
			}
		}
	}
	if unplanned == 0 {
		t.Fatal("plan probes every link; the test needs unplanned direct links")
	}
	checkCarveCase(t, carveSeeds()[0])
}

// carveSizes are the mesh sizes a carve case picks from.
var carveSizes = []int{40, 17, 5}

// Carve case steps, three bytes each: an op byte, then a and b.
const (
	carveCell  = iota // Reset to window a+1; b&1 sets the plan, b&2 hysteresis 0.25
	carveDrive        // 50·(a%32+1) random probes from seed b
	carveProbe        // one probe a→b, lost if op&4, latency 5 ms·(op>>3+1)
	carveOps
)

// carveCase encodes a schedule: the mesh size's index, then the steps.
func carveCase(size byte, steps ...[3]byte) []byte {
	in := []byte{size}
	for _, st := range steps {
		in = append(in, st[:]...)
	}
	return in
}

// carveSeeds: the schedule of TestPlanCarveMatchesDenseReference —
// windows 50 → 50 → 20 → 20 → 20 → 35, each cell driven for six rounds
// of 1500 probes — then small cases on the other sizes.
func carveSeeds() [][]byte {
	var sched [][3]byte
	seed := byte(11)
	for _, c := range []struct{ window, flags byte }{
		{50, 1},
		{50, 1 | 2}, // same shape: the carve is reused
		{20, 1},     // window change re-carves
		{20, 2},     // mesh on the same selector grows the slab
		{20, 1},     // and back, within the mesh slab's capacity
		{35, 1 | 2},
	} {
		sched = append(sched, [3]byte{carveCell, c.window - 1, c.flags})
		for round := 0; round < 6; round++ {
			sched = append(sched, [3]byte{carveDrive, 29, seed})
			seed++
		}
	}
	return [][]byte{
		carveCase(0, sched...),
		carveCase(1, [3]byte{carveCell, 63, 1}, [3]byte{carveDrive, 10, 3}, [3]byte{carveCell, 64, 3}, [3]byte{carveDrive, 10, 4}),
		carveCase(2, [3]byte{carveCell, 7, 3}, [3]byte{carveProbe | 4, 0, 1}, [3]byte{carveProbe, 1, 0}, [3]byte{carveCell, 7, 0}, [3]byte{carveDrive, 2, 9}),
	}
}

// checkCarveCase runs a schedule on a plan-carved selector and on the
// dense reference, comparing every query after every step, and checks
// that the carved slab holds exactly the layout's links once written.
func checkCarveCase(t *testing.T, in []byte) {
	t.Helper()
	if len(in) == 0 {
		return
	}
	n := carveSizes[int(in[0])%len(carveSizes)]
	plan := NewLandmarkPlan(n)
	dense := densePlan(plan)
	sub, ref := NewSelectorWindow(n, 0), NewSelectorWindow(n, 0)
	var cellPlan *LandmarkPlan
	steps := in[1:]
	for i := 0; i+3 <= len(steps); i += 3 {
		op, a, b := steps[i], int(steps[i+1]), int(steps[i+2])
		switch op % carveOps {
		case carveCell:
			window := a + 1
			sub.Reset(window)
			ref.Reset(window)
			cellPlan = nil
			if b&1 != 0 {
				cellPlan = plan
				sub.SetPlan(plan)
				ref.SetPlan(dense)
			}
			if b&2 != 0 {
				sub.SetHysteresis(0.25)
				ref.SetHysteresis(0.25)
			}
		case carveDrive:
			driveRandom(rand.New(rand.NewSource(int64(b))), []*Selector{sub, ref}, n, 50*(a%32+1), cellPlan)
		case carveProbe:
			src, dst := a%n, b%n
			if src == dst || cellPlan != nil && !cellPlan.Probes(src, dst) {
				break
			}
			lost, lat := op&4 != 0, 5*time.Millisecond*time.Duration(op>>3+1)
			sub.Record(src, dst, lost, lat)
			ref.Record(src, dst, lost, lat)
		}
		compareSelectors(t, fmt.Sprintf("n=%d step %d (op %d)", n, i/3, op%carveOps), sub, ref)
		if sub.recorded {
			want := n * n
			if cellPlan != nil {
				want = cellPlan.PlannedLinks()
			}
			if words := spillWords(sub.window); len(sub.est) != want || len(sub.spill) != want*words {
				t.Fatalf("n=%d step %d: slab holds %d links, %d spill words; want %d links of %d words (window %d)",
					n, i/3, len(sub.est), len(sub.spill), want, words, sub.window)
			}
		}
	}
}

// FuzzPlanCarveMatchesDenseReference holds the plan-carved selector to
// the dense reference on arbitrary schedules of cells and probes;
// carveSeeds seed the corpus. A case runs at most carveFuzzSteps steps,
// so the fuzzer spends its time on many short schedules rather than on
// the long one the test runs whole.
func FuzzPlanCarveMatchesDenseReference(f *testing.F) {
	for _, c := range carveSeeds() {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkCarveCase(t, in[:min(len(in), 1+3*carveFuzzSteps)])
	})
}

const carveFuzzSteps = 12

// TestRecarveLeavesNoStaleBits takes one selector through windows 400 →
// 25 → 100 and full mesh → plan → full mesh, each Reset re-carving the
// same records and spill words for links of another width and
// numbering. A ring word is 64 outcomes, so a narrower window reads
// words a wider one wrote: a bit left set there would be subtracted from
// the loss count when the cursor reached it. The reused selector must
// answer as a new one fed the same records, its whole record slab and
// spill slab must be zero after every Reset, and every link's loss count
// must be the population of its own words.
func TestRecarveLeavesNoStaleBits(t *testing.T) {
	const n = 20
	plan := NewLandmarkPlan(n)
	reused := NewSelectorWindow(n, 400)
	rng := rand.New(rand.NewSource(29))
	for ci, cell := range []struct {
		window int
		plan   *LandmarkPlan
	}{
		{400, nil}, {25, nil}, {100, nil}, // narrower, then wider, over the same words
		{400, plan}, {25, nil}, {100, plan}, // and across layouts
		{64, nil}, {65, plan}, {400, nil}, {129, nil}, {200, plan}, {128, nil},
	} {
		if ci > 0 {
			reused.Reset(cell.window)
			for i, word := range reused.spill[:cap(reused.spill)] {
				if word != 0 {
					t.Fatalf("cell %d: Reset left spill word %d at %#x", ci, i, word)
				}
			}
			for i, le := range reused.est[:cap(reused.est)] {
				if le != (LinkEstimate{}) {
					t.Fatalf("cell %d: Reset left record %d at %+v", ci, i, le)
				}
			}
		}
		fresh := NewSelectorWindow(n, cell.window)
		if cell.plan != nil {
			reused.SetPlan(cell.plan)
			fresh.SetPlan(cell.plan)
		}
		for round := 0; round < 4; round++ {
			// Enough probes per link to wrap the narrow windows, mostly
			// lost so the words are dense with set bits.
			for k := 0; k < 12000; k++ {
				s, d := rng.Intn(n), rng.Intn(n)
				if s == d || cell.plan != nil && !cell.plan.Probes(s, d) {
					continue
				}
				lost := rng.Intn(4) > 0
				for _, sel := range []*Selector{reused, fresh} {
					sel.Record(s, d, lost, 20*time.Millisecond)
				}
			}
			compareSelectors(t, fmt.Sprintf("cell %d (window %d) round %d", ci, cell.window, round), reused, fresh)
		}
		sw := spillWords(cell.window)
		if reused.spillWords != sw || len(reused.spill) != sw*len(reused.est) {
			t.Fatalf("cell %d: %d spill words for %d links, %d per link; want %d per link (window %d)",
				ci, len(reused.spill), len(reused.est), reused.spillWords, sw, cell.window)
		}
		for slot := range reused.est {
			le := &reused.est[slot]
			set := 0
			for _, word := range append(le.ring[:], reused.spill[slot*sw:(slot+1)*sw]...) {
				set += bits.OnesCount64(word)
			}
			if set != int(le.losses) {
				t.Fatalf("cell %d slot %d: %d ring bits set, loss count %d", ci, slot, set, le.losses)
			}
		}
	}
}

// TestPlanCarveIsLazy: constructing a selector and setting a plan
// allocates no per-link state at all, and the first record carves for
// the plan's links only.
func TestPlanCarveIsLazy(t *testing.T) {
	const n = 100
	plan := NewLandmarkPlan(n)
	sel := NewSelectorWindow(n, 30)
	sel.SetPlan(plan)
	if len(sel.est) != 0 || cap(sel.usedList) != 0 {
		t.Fatalf("link state carved before first use: %d estimates, used list of %d", len(sel.est), cap(sel.usedList))
	}
	if c := sel.BestLoss(3, 4); !c.IsDirect() || c.Loss != 0 || c.Latency != sel.fallbackLat {
		t.Fatalf("virgin BestLoss = %+v, want direct at loss 0 and the fallback latency", c)
	}
	lm := int(plan.landmarks[0])
	sel.Record((lm+1)%n, lm, false, 10)
	if len(sel.est) != plan.PlannedLinks() || cap(sel.est) >= n*n {
		t.Fatalf("carved %d estimates (cap %d) for %d planned links", len(sel.est), cap(sel.est), plan.PlannedLinks())
	}
}

// TestUnplannedLinkWritePanics: a Record on a link the plan does not
// probe fails by name instead of indexing outside the carve.
func TestUnplannedLinkWritePanics(t *testing.T) {
	const n = 64
	plan := NewLandmarkPlan(n)
	src, dst := -1, -1
	for s := 0; s < n && src < 0; s++ {
		for d := 0; d < n; d++ {
			if s != d && !plan.Probes(s, d) {
				src, dst = s, d
				break
			}
		}
	}
	sel := NewSelectorWindow(n, 0)
	sel.SetPlan(plan)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, fmt.Sprintf("%d→%d", src, dst)) || !strings.Contains(msg, "landmark plan") {
			t.Errorf("Record on unplanned link %d→%d: panic %q does not name the link and the plan", src, dst, msg)
		}
	}()
	sel.Record(src, dst, false, 10)
}
