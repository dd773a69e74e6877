package route

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// Diff counts entries that differ between two same-shape tables, summing
// loss- and latency-table changes. It is what the campaign ran over two
// copies of the tables before Refresh counted its own writes, kept as
// the reference for that count.
func (t *Tables) Diff(o *Tables) int64 {
	var changes int64
	for i, v := range t.lossVia {
		if v != o.lossVia[i] {
			changes++
		}
	}
	for i, v := range t.latVia {
		if v != o.latVia[i] {
			changes++
		}
	}
	return changes
}

// allDirect shapes t as the tables of a freshly booted n-node mesh.
func allDirect(t *Tables, n int) {
	t.reshape(n)
	t.fillDirect()
}

// TestRefreshCountMatchesDiff: the count Refresh returns is the Diff of
// consecutive SnapshotInto copies — for rescans and no-op refreshes,
// under both layouts, with damping on and off, across the calls that
// invalidate the metrics cache, and over a Reset that reuses the
// selector (whose tables start over from all-direct).
func TestRefreshCountMatchesDiff(t *testing.T) {
	const n = 30
	plan := NewLandmarkPlan(n)
	for _, usePlan := range []bool{false, true} {
		for _, hyst := range []float64{0, 0.25} {
			sel := NewSelectorWindow(n, 50)
			rng := rand.New(rand.NewSource(23))
			var prev, cur Tables
			var total int64
			check := func(label string) {
				t.Helper()
				got := sel.Refresh()
				if again := sel.Refresh(); again != 0 {
					t.Fatalf("%s: a second Refresh with no new probes moved %d entries", label, again)
				}
				sel.SnapshotInto(&cur)
				if want := prev.Diff(&cur); got != want {
					t.Fatalf("%s: Refresh counted %d moved entries, Diff of the copies %d", label, got, want)
				}
				total += got
				prev, cur = cur, prev
			}
			for cell := 0; cell < 3; cell++ {
				if cell > 0 {
					sel.Reset(50)
				}
				allDirect(&prev, n)
				if usePlan {
					sel.SetPlan(plan)
				}
				// The middle cell runs undamped on a selector that has
				// held hysteresis state.
				if hyst > 0 && cell != 1 {
					sel.SetHysteresis(hyst)
				}
				label := func(round int) string {
					return fmt.Sprintf("plan=%v hyst=%v cell %d round %d", usePlan, hyst, cell, round)
				}
				check(label(0) + " (virgin)")
				for round := 1; round <= 14; round++ {
					switch round {
					case 4:
						sel.setFallbackLatency(80 * time.Millisecond)
					case 8:
						// Over a mesh-carved slab this restricts the vias
						// mid-cell; over the plan's own it only invalidates.
						sel.SetPlan(plan)
					case 11:
						if !usePlan {
							sel.SetPlan(nil)
						}
					}
					if round%5 != 0 { // every 5th refresh has no new probes
						driveRandom(rng, []*Selector{sel}, n, 400, sel.Plan())
					}
					check(label(round))
				}
			}
			if total == 0 {
				t.Fatalf("plan=%v hyst=%v: no table entry ever moved; the comparison is vacuous", usePlan, hyst)
			}
		}
	}
}

// TestHysteresisStateFreshAfterReuse: Reset leaves the held-path buffers
// to the next SetHysteresis, so a cell that re-enables damping on a
// selector that used it two cells ago — with an undamped cell between —
// starts from "no held path" exactly as a new selector does.
func TestHysteresisStateFreshAfterReuse(t *testing.T) {
	const n = 20
	reused := NewSelectorWindow(n, 50)
	for cell, hyst := range []float64{0.3, 0, 0.3} {
		if cell > 0 {
			reused.Reset(50)
		}
		fresh := NewSelectorWindow(n, 50)
		if hyst > 0 {
			reused.SetHysteresis(hyst)
			fresh.SetHysteresis(hyst)
		}
		rng := rand.New(rand.NewSource(int64(40 + cell)))
		for round := 0; round < 8; round++ {
			driveRandom(rng, []*Selector{reused, fresh}, n, 600, nil)
			compareSelectors(t, fmt.Sprintf("cell %d round %d", cell, round), reused, fresh)
		}
	}
}

// checkMetricsAgainstDense holds the slot-indexed metrics cache, and the
// landmark row table, column scratch and direct column gathered from
// it, to a dense n² reference derived from the estimates themselves
// after a Refresh, keys included: a full-mesh metrics row's at their
// destination's position, a landmark row's at the landmark's, every
// other at position 0.
func checkMetricsAgainstDense(t *testing.T, label string, sel *Selector) {
	t.Helper()
	n := sel.n
	type metrics struct {
		loss     float64
		lat, adj time.Duration
		dead     bool
	}
	dense := make([]metrics, n*n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			m := metrics{loss: math.Inf(1), adj: latDead} // the self-link sentinels
			if src != dst {
				le := sel.link(src, dst)
				m = metrics{loss: le.LossRate(sel.window), lat: le.LatencyEstimate(sel.fallbackLat), dead: le.Dead(DefaultDeadThreshold)}
				m.adj = m.lat
				if m.dead {
					m.adj = latDead
				}
				loss, lat, key := sel.cached(src, dst)
				if loss != m.loss || lat != m.lat || key != packLat(m.adj, 0) || keyDead(key) != m.dead {
					t.Fatalf("%s: cached metrics of %d→%d are %v %v %#x, the estimate says %+v", label, src, dst, loss, lat, key, m)
				}
			}
			if sel.layout == nil && sel.mLatKey[src*n+dst] != packLat(m.adj, dst) {
				t.Fatalf("%s: metrics row key of %d→%d is %#x, want %#x", label, src, dst, sel.mLatKey[src*n+dst], packLat(m.adj, dst))
			}
			dense[src*n+dst] = m
		}
	}
	p := sel.plan
	if p == nil {
		for dst := 0; dst < n; dst++ {
			sel.gatherCol(dst)
			for via := 0; via < n; via++ {
				m := dense[via*n+dst]
				if sel.colLoss[via] != m.loss || sel.colLat[via] != m.lat || sel.colKey[via] != packLat(m.adj, 0) {
					t.Fatalf("%s: column scratch of %d→%d differs from the dense reference", label, via, dst)
				}
			}
		}
		return
	}
	L := len(p.landmarks)
	virgin := metrics{lat: sel.fallbackLat, adj: sel.fallbackLat}
	for node := 0; node < n; node++ {
		dpos := sel.gatherCol(node)
		for li, lm := range p.landmarks {
			row, col := dense[node*n+int(lm)], dense[int(lm)*n+node]
			at := node*L + li
			if sel.lmRowLoss[at] != row.loss || sel.lmRowLat[at] != row.lat || sel.lmRowKey[at] != packLat(row.adj, li) {
				t.Fatalf("%s: row table of %d→landmark %d differs from the dense reference", label, node, lm)
			}
			if sel.colLoss[li] != col.loss || sel.colLat[li] != col.lat || sel.colKey[li] != packLat(col.adj, 0) {
				t.Fatalf("%s: column scratch of landmark %d→%d differs from the dense reference", label, lm, node)
			}
		}
		sel.gatherDirect(node, dpos)
		for src := 0; src < n; src++ {
			if m := dense[src*n+node]; src != node &&
				(sel.dirLoss[src] != m.loss || sel.dirLat[src] != m.lat || sel.dirKey[src] != packLat(m.adj, 0)) {
				t.Fatalf("%s: direct column of %d→%d differs from the dense reference", label, src, node)
			}
		}
		sel.restoreDirect(node, dpos)
		for src := 0; src < n; src++ {
			if sel.dirLoss[src] != virgin.loss || sel.dirLat[src] != virgin.lat || sel.dirKey[src] != packLat(virgin.adj, 0) {
				t.Fatalf("%s: direct column entry %d is not the virgin estimate's after destination %d", label, src, node)
			}
		}
	}
}

// TestSlotMetricsMatchDenseReference walks one selector through the
// three layouts the metrics cache is keyed by — full mesh, the plan's
// compact numbering, a plan set over a mesh-carved slab — and through
// Resets that re-carve between them over the same storage, comparing the
// cache with the dense reference after every refresh.
func TestSlotMetricsMatchDenseReference(t *testing.T) {
	const n = 36
	plan := NewLandmarkPlan(n)
	sel := NewSelectorWindow(n, 40)
	rng := rand.New(rand.NewSource(61))
	for ci, layout := range []string{"mesh", "plan", "plan over mesh", "plan", "mesh"} {
		if ci > 0 {
			sel.Reset(40)
		}
		switch layout {
		case "plan":
			sel.SetPlan(plan)
		case "plan over mesh":
			denseUnderPlan(sel, plan)
		}
		for round := 0; round < 8; round++ {
			if round == 5 {
				sel.setFallbackLatency(120 * time.Millisecond)
			}
			driveRandom(rng, []*Selector{sel}, n, 500, sel.Plan())
			// Some links die: four losses in a row.
			for k := 0; k < 3; k++ {
				src, dst := rng.Intn(n), int(plan.landmarks[rng.Intn(len(plan.landmarks))])
				for i := 0; src != dst && i < DefaultDeadThreshold; i++ {
					sel.Record(src, dst, true, 0)
				}
			}
			sel.Refresh()
			checkMetricsAgainstDense(t, fmt.Sprintf("cell %d (%s) round %d", ci, layout, round), sel)
		}
	}
}

// planLatScanReference is the scan the latency kernel replaced, over a
// landmark row and the gathered column as plain durations: a running
// strict minimum over the landmark positions, starting from the direct
// path. Its Via is a landmark position, as the kernel's is.
func planLatScanReference(rowLoss, colLoss []float64, rowAdj, colAdj []time.Duration, directLoss float64, directLat, directAdj time.Duration) Choice {
	bestVia, bestLat := -1, directAdj
	for li := range rowAdj {
		if lat := rowAdj[li] + colAdj[li]; lat < bestLat {
			bestVia, bestLat = li, lat
		}
	}
	if bestVia < 0 {
		return Choice{Via: -1, Loss: directLoss, Latency: directLat}
	}
	return Choice{Via: bestVia,
		Loss:    pathLoss(rowLoss[bestVia], colLoss[bestVia]),
		Latency: bestLat}
}

// scanLatChoice is BestLat of one pair as the rescan derives it from the
// arrays it reads: minSumVia over a source's row keys and the gathered
// column's keys against the direct comparand, composed into a Choice
// whose Via is a candidate position.
func scanLatChoice(s *Selector, rowLoss []float64, rowKey []latKey, directLoss float64, directLat time.Duration, directKey latKey) Choice {
	via, lat := minSumVia(rowKey, s.colKey, directKey)
	if via < 0 {
		return Choice{Via: -1, Loss: directLoss, Latency: directLat}
	}
	return Choice{Via: via, Loss: pathLoss(rowLoss[via], s.colLoss[via]), Latency: lat}
}

// checkPlanLatScan packs a landmark row and column given as plain
// durations into src's row of sel's landmark row table and the column
// scratch, as gatherLandmarkRows and gatherCol store them, and demands
// the kernel's choice be the scalar loop's.
func checkPlanLatScan(t *testing.T, label string, sel *Selector, src int, rowLoss []float64, rowAdj, colAdj []time.Duration, directLoss float64, direct, directAdj time.Duration) {
	t.Helper()
	L := len(rowAdj)
	rowKey := sel.lmRowKey[src*L : src*L+L]
	for li := range rowAdj {
		rowKey[li], sel.colKey[li] = packLat(rowAdj[li], li), packLat(colAdj[li], 0)
	}
	got := scanLatChoice(sel, rowLoss, rowKey, directLoss, direct, packLat(directAdj, 0))
	want := planLatScanReference(rowLoss, sel.colLoss[:L], rowAdj, colAdj, directLoss, direct, directAdj)
	if got != want {
		t.Fatalf("n=%d (L=%d) %s: packed scan picks %+v, the scalar loop %+v\nrow %v\ncol %v\ndirect %v (adjusted %v)",
			sel.n, L, label, got, want, rowAdj, colAdj, direct, directAdj)
	}
}

// TestPlanLatScanMatchesReference holds the packed latency scan over
// landmark positions to the scalar loop it replaced, on the landmark
// row table and column scratch written directly so
// ties are exact: equal sums at several landmark positions, a minimum
// equal to the direct path, a dead direct link, src and dst themselves
// landmarks (the sentinel positions), every path dead, and landmark
// counts on both sides of a multiple of four.
func TestPlanLatScanMatchesReference(t *testing.T) {
	const ms = time.Millisecond
	for _, n := range planLatSizes {
		plan := NewLandmarkPlan(n)
		L := len(plan.landmarks)
		sel := NewSelectorWindow(n, 0)
		sel.SetPlan(plan)
		const src = 3
		rowLoss := sel.lmRowLoss[src*L : src*L+L]
		rowAdj, col := make([]time.Duration, L), make([]time.Duration, L)
		check := func(label string, direct, directAdj time.Duration) {
			t.Helper()
			checkPlanLatScan(t, label, sel, src, rowLoss, rowAdj, col, 0.125, direct, directAdj)
		}
		fill := func(row, c time.Duration) {
			for li := 0; li < L; li++ {
				rowAdj[li], col[li] = row, c
				rowLoss[li] = float64(li) / 64
				sel.colLoss[li] = float64(L-li) / 128
			}
		}
		// Every landmark path sums to the same 60 ms.
		fill(40*ms, 20*ms)
		check("all sums equal, direct slower", 70*ms, 70*ms)
		check("all sums equal to direct", 60*ms, 60*ms)
		check("all sums equal, direct faster", 50*ms, 50*ms)
		check("all sums equal, direct dead", 10*ms, latDead)
		// The same minimum at a few positions, every start and stride.
		for first := 0; first < L; first++ {
			for stride := 1; stride <= 3; stride++ {
				fill(40*ms, 20*ms)
				for li := first; li < L; li += stride {
					rowAdj[li], col[li] = 15*ms, 30*ms // 45, split differently
				}
				label := fmt.Sprintf("minimum at %d and every %d after", first, stride)
				check(label+", direct slower", 50*ms, 50*ms)
				check(label+", direct equal", 45*ms, 45*ms)
				check(label+", direct dead", 45*ms, latDead)
			}
		}
		// src and dst are landmarks: their positions carry the sentinel.
		for a := 0; a < L; a++ {
			for b := 0; b < L; b++ {
				fill(40*ms, 20*ms)
				rowAdj[a] = latDead
				col[b] = latDead
				check(fmt.Sprintf("sentinels at %d (row) and %d (column)", a, b), 61*ms, 61*ms)
			}
		}
		// No live path at all: direct is the last resort.
		fill(latDead, 20*ms)
		check("every landmark path dead, direct dead", 30*ms, latDead)
		check("every landmark path dead, direct alive", 30*ms, 30*ms)

		// Random scratch from a small value set, so ties are the rule.
		rng := rand.New(rand.NewSource(int64(n)))
		draw := func() time.Duration {
			if rng.Intn(8) == 0 {
				return latDead
			}
			return time.Duration(10+5*rng.Intn(6)) * ms
		}
		for trial := 0; trial < 2000; trial++ {
			for li := 0; li < L; li++ {
				rowAdj[li], col[li] = draw(), draw()
			}
			direct := time.Duration(20+5*rng.Intn(12)) * ms
			adj := direct
			if rng.Intn(6) == 0 {
				adj = latDead
			}
			check(fmt.Sprintf("random trial %d", trial), direct, adj)
		}
	}
}

// planLatSizes are the overlay sizes the landmark latency scan is held
// at: landmark counts on both sides of a multiple of four.
var planLatSizes = []int{10, 17, 26, 49, 64, 81, 100, 122}

// scanLat decodes one latency byte of the scan fuzzers' cases: its low
// three bits are 10–40 ms in 5 ms steps, or latDead when all are set,
// so equal sums are the common case; the next three bits are a loss
// rate in eighths.
func scanLat(b byte) (time.Duration, float64) {
	loss := float64(b>>3&7) / 8
	if b&7 == 7 {
		return latDead, loss
	}
	return time.Duration(10+5*int(b&7)) * time.Millisecond, loss
}

// A landmark scan case is a byte string: the overlay size (an index
// into planLatSizes), the direct path — 20–95 ms in 5 ms steps from the
// low four bits, a dead direct link when bit 4 is set, a loss rate in
// eighths from the top three — then one (row, column) scanLat byte pair
// per landmark position. Positions past the pairs given reuse them
// cyclically, so a short case is a field of ties. A case with no pair
// is empty.
func planLatCase(sizeIdx int, direct byte, pairs ...[2]byte) []byte {
	b := []byte{byte(sizeIdx), direct}
	for _, p := range pairs {
		b = append(b, p[0], p[1])
	}
	return b
}

// planLatSeeds are TestPlanLatScanMatchesReference's case families in
// planLatCase form: all sums equal against a slower, equal, faster and
// dead direct path; the minimum at a few positions by start and stride;
// sentinels at landmark src and dst positions; every path dead.
func planLatSeeds() [][]byte {
	const (
		dflt       = 6 | 2<<3 // 40 ms
		dfltC      = 2 | 1<<3 // 20 ms: every default path sums to 60 ms
		minR       = 1        // 15 ms
		minC       = 4        // 30 ms: a 45 ms path, split differently
		dead       = 7
		deadDirect = 1 << 4
	)
	var seeds [][]byte
	for si, n := range planLatSizes {
		L := len(NewLandmarkPlan(n).landmarks)
		// field is one pair per position, the default path where set
		// leaves it alone.
		field := func(set func(li int, p *[2]byte)) [][2]byte {
			pairs := make([][2]byte, L)
			for li := range pairs {
				pairs[li] = [2]byte{dflt, dfltC}
				set(li, &pairs[li])
			}
			return pairs
		}
		for _, d := range []byte{10, 8, 6, 2 | deadDirect} { // 70, 60, 50 ms, dead
			seeds = append(seeds, planLatCase(si, d, [2]byte{dflt, dfltC}))
		}
		for first := 0; first < min(L, 4); first++ {
			for stride := 1; stride <= 3; stride++ {
				pairs := field(func(li int, p *[2]byte) {
					if li >= first && (li-first)%stride == 0 {
						*p = [2]byte{minR, minC}
					}
				})
				for _, d := range []byte{6, 5, 5 | deadDirect} { // 50, 45 ms, dead
					seeds = append(seeds, planLatCase(si, d, pairs...))
				}
			}
		}
		for _, a := range []int{0, L / 2, L - 1} {
			for _, c := range []int{0, L - 1} {
				pairs := field(func(li int, p *[2]byte) {
					if li == a {
						p[0] = dead
					}
					if li == c {
						p[1] = dead
					}
				})
				seeds = append(seeds, planLatCase(si, 9, pairs...)) // 65 ms
			}
		}
		seeds = append(seeds,
			planLatCase(si, 2|deadDirect, [2]byte{dead, dfltC}),
			planLatCase(si, 2, [2]byte{dead, dfltC}))
	}
	return seeds
}

// checkPlanLatCase runs one planLatCase through the packed kernel and
// planLatScanReference on a landmark row and column scratch written
// directly, and demands the same choice.
func checkPlanLatCase(t *testing.T, in []byte) {
	t.Helper()
	if len(in) < 4 {
		return
	}
	n := planLatSizes[int(in[0])%len(planLatSizes)]
	sel := NewSelectorWindow(n, 0)
	sel.SetPlan(NewLandmarkPlan(n))
	L := len(sel.plan.landmarks)
	const src = 3
	rowLoss := sel.lmRowLoss[src*L : src*L+L]
	rowAdj, colAdj := make([]time.Duration, L), make([]time.Duration, L)
	direct := time.Duration(20+5*int(in[1]&15)) * time.Millisecond
	directAdj := direct
	if in[1]&(1<<4) != 0 {
		directAdj = latDead
	}
	directLoss := float64(in[1]>>5) / 8
	pairs := in[2 : 2+(len(in)-2)/2*2]
	for li := 0; li < L; li++ {
		p := pairs[2*li%len(pairs):]
		rowAdj[li], rowLoss[li] = scanLat(p[0])
		colAdj[li], sel.colLoss[li] = scanLat(p[1])
	}
	checkPlanLatScan(t, "case", sel, src, rowLoss, rowAdj, colAdj, directLoss, direct, directAdj)
}

// FuzzPlanLatScanMatchesReference holds the landmark latency scan to
// the scalar loop it replaced on arbitrary planLatCase inputs;
// planLatSeeds seed the corpus.
func FuzzPlanLatScanMatchesReference(f *testing.F) {
	for _, c := range planLatSeeds() {
		f.Add(c)
	}
	f.Fuzz(checkPlanLatCase)
}

// touchLink returns src→dst's estimate for mutation, carving the slab
// and doing Record's bookkeeping: an empty record joins the used list,
// and the metrics cache goes stale.
func touchLink(s *Selector, src, dst int) *LinkEstimate {
	slot := s.writeSlot(src, dst)
	if s.est[slot].empty() {
		s.usedList = append(s.usedList, int32(slot))
	}
	s.metricsValid = false
	return &s.est[slot]
}

// pinLink overwrites src→dst's estimate with exact inputs — a loss rate
// that is a multiple of 1/8, a latency (≤ 0 reads the fallback), a dead
// flag — so a test can stage heavily tied routing states that probe
// outcomes reach only through long EWMA sequences.
func pinLink(s *Selector, src, dst int, loss float64, lat time.Duration, dead bool) {
	le := touchLink(s, src, dst)
	*le = LinkEstimate{}
	for i := 0; i < 8; i++ {
		le.Record(float64(i) < loss*8, 0, s.window, nil)
	}
	le.latency, le.flags = float64(lat), le.flags&^latValid
	if lat > 0 {
		le.flags |= latValid
	}
	le.consecutiveLosses = 0
	if dead {
		le.consecutiveLosses = math.MaxUint16
	}
}

// meshLatChoice is scanLatChoice of src→dst under full mesh with dst's
// column gathered: src's metrics row is the scan row, and the column's
// entry src the direct path, as rescanDst reads them.
func meshLatChoice(s *Selector, src int) Choice {
	lo, hi := src*s.n, src*s.n+s.n
	return scanLatChoice(s, s.mLoss[lo:hi], s.mLatKey[lo:hi], s.colLoss[src], s.colLat[src], s.colKey[src])
}

// TestMeshLatScanMatchesReference holds the full-mesh latency scan — the
// same kernel over a metrics row and a gathered column — to BestLat's
// walk over the estimates, choice for choice (via, loss and latency) and
// in the refreshed table. Pinned estimates fix exact latencies, so ties
// are the rule: every via path equal, a minimum equal to the direct
// path, a dead direct link with live vias, every via dead, rows that
// read the fallback latency. Mesh sizes put the scan's tail on every
// remainder of four, n = 2 and 3 leave it nothing but sentinels, and
// n = 512 is the big-world size: each whole-mesh scenario there is an n³
// refresh, so it runs the three marked big, compares a sample of
// columns, and is skipped under -short.
func TestMeshLatScanMatchesReference(t *testing.T) {
	const ms = time.Millisecond
	for _, n := range []int{2, 3, 5, 30, 31, 512} {
		big := n > 31
		if big && testing.Short() {
			continue
		}
		sel := NewSelectorWindow(n, 0)
		var dsts []int
		for dst := 0; dst < n; dst++ {
			if !big || dst%128 == 0 || dst == n-1 {
				dsts = append(dsts, dst)
			}
		}
		last := n - 1
		set := func(src, dst int, lat time.Duration, dead bool) {
			loss := float64((src+dst)%5) / 8
			if big && (src+dst)%8 != 0 {
				loss = 0 // most pairs stay on the loss scan's quiet shortcut
			}
			pinLink(sel, src, dst, loss, lat, dead)
		}
		// fill gives every link 20 ms, so every via path sums to 40 ms,
		// except the links lat overrides.
		fill := func(lat func(src, dst int) time.Duration) {
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					d := 20 * ms
					if lat != nil && lat(src, dst) != 0 {
						d = lat(src, dst)
					}
					set(src, dst, d, false)
				}
			}
		}
		rng := rand.New(rand.NewSource(int64(n)))
		for _, sc := range []struct {
			label  string
			big    bool
			rounds int
			setup  func()
		}{
			{"nothing recorded: every row reads the fallback latency", false, 1, func() {
				touchLink(sel, 0, 1) // carves; the touch records nothing
			}},
			{"all sums equal, direct faster", false, 1, func() { fill(nil) }},
			{"some direct paths slower than a field of tied vias", false, 1, func() {
				fill(func(src, dst int) time.Duration { return time.Duration((src+dst)%3/2) * 50 * ms })
			}},
			{"all sums equal to the direct paths of one column; dead direct links, live tied vias", true, 1, func() {
				fill(func(src, dst int) time.Duration {
					if dst == last {
						return 40 * ms
					}
					return 0
				})
				for _, dst := range dsts[:len(dsts)-1] {
					set((dst+1)%n, dst, 20*ms, true)
					set(dst, (dst+1)%n, 20*ms, true)
				}
			}},
			// Every via dead: the direct path is the last resort, alive
			// or not.
			{"every first leg from node 0 dead but one", false, 1, func() {
				fill(nil)
				for dst := 1; dst < n; dst++ {
					set(0, dst, 20*ms, dst != last)
				}
			}},
			{"every link from node 0 dead", false, 1, func() { set(0, last, 20*ms, true) }},
			{"odd rows unmeasured, at a fallback latency that ties measured ones", true, 1, func() {
				sel.Reset(0)
				sel.setFallbackLatency(20 * ms)
				for src := 0; src < n; src += 2 {
					for dst := 0; dst < n; dst++ {
						if src != dst {
							set(src, dst, time.Duration(10*(1+(src+dst)%3))*ms, false)
						}
					}
				}
			}},
			{"random summaries from a small value set, refreshed after each batch", true, 8, func() {
				for k := 0; k < 8; k++ {
					if src, dst := rng.Intn(n), rng.Intn(n); src != dst {
						set(src, dst, time.Duration(10*(1+rng.Intn(4)))*ms, rng.Intn(8) == 0)
					}
				}
			}},
		} {
			if big && !sc.big {
				continue
			}
			for round := 0; round < sc.rounds; round++ {
				sc.setup()
				sel.Refresh()
				tables := sel.Tables()
				for _, dst := range dsts {
					sel.gatherCol(dst)
					for src := 0; src < n; src++ {
						if src == dst {
							continue
						}
						want := sel.BestLat(src, dst)
						if got := meshLatChoice(sel, src); got != want {
							t.Fatalf("n=%d %s: scan of %d→%d picks %+v, BestLat %+v", n, sc.label, src, dst, got, want)
						}
						if got := tables.LatVia(src, dst); got != want.Via {
							t.Fatalf("n=%d %s: LatVia(%d,%d) = %d, BestLat %d", n, sc.label, src, dst, got, want.Via)
						}
					}
				}
			}
		}
	}
}

// A full-mesh scan case is a byte string: the mesh size n (2–31), the
// source, the destination (an offset from the source, so never equal
// to it), the fallback latency (10–45 ms in 5 ms steps from the low
// three bits, so unmeasured links tie measured ones), the direct link, then one (row, column)
// link pair per intermediate — src→via and via→dst, in via order —
// reused cyclically past the pairs given. A link byte's low three bits
// are 10–35 ms in 5 ms steps, 6 for a link never measured (it reads the
// fallback latency) or 7 for a dead one; the next three bits are its
// loss rate in eighths. Links the case does not name stay unmeasured.
func meshLatCase(n, src, dstOff int, fallback, direct byte, pairs ...[2]byte) []byte {
	b := []byte{byte(n - 2), byte(src), byte(dstOff), fallback, direct}
	for _, p := range pairs {
		b = append(b, p[0], p[1])
	}
	return b
}

// meshLatSeeds are TestMeshLatScanMatchesReference's case families in
// meshLatCase form, at its mesh sizes up to 31: nothing measured; all
// sums equal against a faster direct link, an unmeasured one reading an
// equal fallback, and a dead one; a direct link slower than some vias;
// most first legs dead; every via dead; unmeasured legs whose fallback
// ties measured latencies.
func meshLatSeeds() [][]byte {
	const (
		l10    = 0
		l20    = 2 | 1<<3
		l35    = 5 | 3<<3
		unmeas = 6
		dead   = 7 | 2<<3
		fb20   = 2 // fallback 20 ms
		fb40   = 6 // fallback 40 ms
	)
	tied := [2]byte{l20, l20} // every via path sums to 40 ms
	var seeds [][]byte
	for _, n := range []int{2, 3, 5, 30, 31} {
		for _, src := range []int{0, n - 1} {
			seeds = append(seeds,
				meshLatCase(n, src, 0, fb20, unmeas),
				meshLatCase(n, src, n-2, fb20, l20, tied),
				meshLatCase(n, src, 1, fb40, unmeas, tied),
				meshLatCase(n, src, 1, fb20, l35, tied, [2]byte{l10, l20}),
				meshLatCase(n, src, 1, fb20, dead, tied),
				meshLatCase(n, src, 1, fb20, l20, [2]byte{dead, l20}, [2]byte{dead, l20}, tied),
				meshLatCase(n, src, 1, fb20, dead, [2]byte{dead, l20}, [2]byte{l20, dead}),
				meshLatCase(n, src, 1, fb20, l20, [2]byte{unmeas, l20}, [2]byte{l10, unmeas}),
			)
		}
	}
	return seeds
}

// checkMeshLatCase stages one meshLatCase on a fresh full-mesh selector,
// refreshes it, and holds the cached scan to BestLat's walk over the
// estimates — choice for choice and in the latency table — for every
// source towards the case's destination.
func checkMeshLatCase(t *testing.T, in []byte) {
	t.Helper()
	if len(in) < 5 {
		return
	}
	n := 2 + int(in[0])%30
	src := int(in[1]) % n
	dst := (src + 1 + int(in[2])%(n-1)) % n
	sel := NewSelectorWindow(n, 0)
	sel.setFallbackLatency(time.Duration(10+5*int(in[3]&7)) * time.Millisecond)
	set := func(a, b int, v byte) {
		lat, loss := scanLat(v)
		switch v & 7 {
		case 6:
		case 7:
			pinLink(sel, a, b, loss, 20*time.Millisecond, true)
		default:
			pinLink(sel, a, b, loss, lat, false)
		}
	}
	touchLink(sel, src, dst) // carves; the touch records nothing
	set(src, dst, in[4])
	if pairs := in[5 : 5+(len(in)-5)/2*2]; len(pairs) > 0 {
		for via, k := 0, 0; via < n; via++ {
			if via == src || via == dst {
				continue
			}
			p := pairs[2*k%len(pairs):]
			set(src, via, p[0])
			set(via, dst, p[1])
			k++
		}
	}
	sel.Refresh()
	sel.gatherCol(dst)
	tables := sel.Tables()
	for s := 0; s < n; s++ {
		if s == dst {
			continue
		}
		want := sel.BestLat(s, dst)
		if got := meshLatChoice(sel, s); got != want {
			t.Fatalf("n=%d case %d→%d: scan of %d→%d picks %+v, BestLat %+v", n, src, dst, s, dst, got, want)
		}
		if got := tables.LatVia(s, dst); got != want.Via {
			t.Fatalf("n=%d case %d→%d: LatVia(%d,%d) = %d, BestLat %d", n, src, dst, s, dst, got, want.Via)
		}
	}
}

// FuzzMeshLatScanMatchesReference holds the full-mesh latency scan to
// BestLat on arbitrary meshLatCase inputs; meshLatSeeds seed the
// corpus.
func FuzzMeshLatScanMatchesReference(f *testing.F) {
	for _, c := range meshLatSeeds() {
		f.Add(c)
	}
	f.Fuzz(checkMeshLatCase)
}

// TestMinSumViaMatchesScalarLoop holds the packed kernel to the running
// strict minimum over plain durations it replaced in both scans, at
// every length around its unroll width, and on a row of MaxMeshNodes
// entries: ties at the last position, 2¹⁴−1, whose key has every
// position bit set, and sums of two dead legs (2·latDead), the largest a
// key holds.
func TestMinSumViaMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	draw := func() time.Duration {
		if rng.Intn(8) == 0 {
			return latDead
		}
		return time.Duration(1+rng.Intn(5)) * time.Millisecond
	}
	for length := 0; length <= 21; length++ {
		row, col := make([]time.Duration, length), make([]time.Duration, length+2)
		for trial := 0; trial < 3000; trial++ {
			for i := range row {
				row[i], col[i] = draw(), draw()
			}
			direct := draw() + time.Duration(rng.Intn(3))*time.Millisecond
			checkMinSumVia(t, row, col, direct)
		}
	}

	const ms = time.Millisecond
	row, col := make([]time.Duration, MaxMeshNodes), make([]time.Duration, MaxMeshNodes)
	last := MaxMeshNodes - 1
	fill := func(r, c time.Duration) {
		for i := range row {
			row[i], col[i] = r, c
		}
	}
	for trial := 0; trial < 20; trial++ {
		for i := range row {
			row[i], col[i] = draw(), draw()
		}
		checkMinSumVia(t, row, col, draw()+time.Duration(rng.Intn(3))*ms)
	}
	for _, direct := range []time.Duration{5 * ms, 6 * ms, latDead} {
		fill(6*ms, 4*ms)
		row[last] = ms // the minimum, 5 ms, at the last position alone
		checkMinSumVia(t, row, col, direct)
		row[last-1], col[last-1] = 3*ms, 2*ms // tied one position earlier
		checkMinSumVia(t, row, col, direct)
		row[last-1] = latDead // the earlier one's first leg dead
		checkMinSumVia(t, row, col, direct)
	}
	// Every path over two dead legs: the direct path wins, dead or not.
	fill(latDead, latDead)
	checkMinSumVia(t, row, col, latDead)
	checkMinSumVia(t, row, col, 7*ms)
	// Against a comparand above every sum, the last position's two dead
	// legs are the minimum.
	fill(latDead+ms, latDead)
	row[last] = latDead
	checkMinSumVia(t, row, col, 2*latDead+ms)
	col[0] = latDead - ms // and then tied by position 0
	checkMinSumVia(t, row, col, 2*latDead+ms)
}

// checkMinSumVia holds minSumVia to the scalar loop it replaced, over
// plain durations: a running strict minimum started at direct, so the
// direct path wins ties. The kernel reads them as the scans store them,
// packed: a row entry at its position, a column entry and direct at 0.
func checkMinSumVia(t *testing.T, row, col []time.Duration, direct time.Duration) {
	t.Helper()
	wantVia, want := -1, direct
	for i := range row {
		if sum := row[i] + col[i]; sum < want {
			wantVia, want = i, sum
		}
	}
	rowKey, colKey := make([]latKey, len(row)), make([]latKey, len(col))
	for i, d := range row {
		rowKey[i] = packLat(d, i)
	}
	for i, d := range col {
		colKey[i] = packLat(d, 0)
	}
	if via, best := minSumVia(rowKey, colKey, packLat(direct, 0)); via != wantVia || best != want {
		if len(row) > 64 {
			t.Fatalf("length %d: minSumVia = (%d, %v), scalar loop (%d, %v), direct %v", len(row), via, best, wantVia, want, direct)
		}
		t.Fatalf("length %d: minSumVia = (%d, %v), scalar loop (%d, %v)\nrow %v\ncol %v\ndirect %v",
			len(row), via, best, wantVia, want, row, col, direct)
	}
}

// FuzzMinSumViaMatchesScalarLoop runs checkMinSumVia on arbitrary
// inputs. The first byte is direct, each later pair of bytes one
// position's row and col entry; col carries two more entries than row,
// as the scans' columns do. A byte is 0–6 ms, or latDead when its low
// three bits are all set, so ties are the common case; direct adds 0–3
// ms from its top two bits. TestMinSumViaMatchesScalarLoop's lengths 0–21
// seed the corpus.
func FuzzMinSumViaMatchesScalarLoop(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for length := 0; length <= 21; length++ {
		in := make([]byte, 1+2*length)
		rng.Read(in)
		f.Add(in)
	}
	lat := func(b byte) time.Duration {
		if b&7 == 7 {
			return latDead
		}
		return time.Duration(b&7) * time.Millisecond
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		direct := lat(in[0]) + time.Duration(in[0]>>6)*time.Millisecond
		n := (len(in) - 1) / 2
		row, col := make([]time.Duration, n), make([]time.Duration, n+2)
		for i := range row {
			row[i], col[i] = lat(in[1+2*i]), lat(in[2+2*i])
		}
		checkMinSumVia(t, row, col, direct)
	})
}

// TestPlanLatScanMatchesBestLat is the same property end to end: with
// pinned estimates fixing exact, heavily tied latencies and dead flags, the refreshed latency table agrees with BestLat's walk over the
// estimates on every pair, landmark endpoints included.
func TestPlanLatScanMatchesBestLat(t *testing.T) {
	const n = 45 // L = 7
	plan := NewLandmarkPlan(n)
	sel := NewSelectorWindow(n, 0)
	sel.SetPlan(plan)
	rng := rand.New(rand.NewSource(8))
	for round := 0; round < 6; round++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if plan.Probes(src, dst) && rng.Intn(3) > 0 {
					lat := time.Duration(10*(1+rng.Intn(4))) * time.Millisecond
					pinLink(sel, src, dst, float64(rng.Intn(4))/8, lat, rng.Intn(10) == 0)
				}
			}
		}
		sel.Refresh()
		tables := sel.Tables()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				if got, want := tables.LatVia(src, dst), sel.BestLat(src, dst).Via; got != want {
					t.Fatalf("round %d: LatVia(%d,%d) = %d, BestLat = %d", round, src, dst, got, want)
				}
				if got, want := tables.LossVia(src, dst), sel.BestLoss(src, dst).Via; got != want {
					t.Fatalf("round %d: LossVia(%d,%d) = %d, BestLoss = %d", round, src, dst, got, want)
				}
			}
		}
	}
}
