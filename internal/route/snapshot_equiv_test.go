package route

import (
	"math/rand"
	"testing"
	"time"
)

// TestSnapshotMatchesStableSelections pins the equivalence the
// campaign's locked-output guarantee rests on: SnapshotInto's cached,
// sentinel-encoded fast paths must select exactly what the plain
// BestLossStable/BestLatStable calls select, for meshes with losses,
// dead links, unmeasured links, and hysteresis, across many refresh
// rounds. The twin selectors are fed identical probe streams; one is
// snapshotted via SnapshotInto, the other queried pair-by-pair in the
// same destination-major order (hysteresis state mutates during both,
// so the call order must match for the comparison to be meaningful).
func TestSnapshotMatchesStableSelections(t *testing.T) {
	for _, hyst := range []float64{0, 0.3} {
		rng := rand.New(rand.NewSource(99))
		const n = 9
		fast := NewSelectorWindow(n, 0)
		ref := NewSelectorWindow(n, 0)
		if hyst > 0 {
			fast.SetHysteresis(hyst)
			ref.SetHysteresis(hyst)
		}
		var tables Tables
		for round := 0; round < 40; round++ {
			// A batch of probes: mixed losses, a few hard-dead links
			// (consecutive losses), and some links never measured.
			for k := 0; k < 200; k++ {
				s, d := rng.Intn(n), rng.Intn(n)
				if s == d {
					continue
				}
				lost := rng.Float64() < 0.25
				if s == round%n && d == (round+1)%n {
					lost = true // drive this round's pair toward dead
				}
				lat := time.Duration(5+rng.Intn(120)) * time.Millisecond
				if lost {
					lat = 0
				}
				fast.Record(s, d, lost, lat)
				ref.Record(s, d, lost, lat)
			}
			fast.SnapshotInto(&tables)
			for dst := 0; dst < n; dst++ {
				for src := 0; src < n; src++ {
					if src == dst {
						if tables.LossVia(src, dst) != -1 || tables.LatVia(src, dst) != -1 {
							t.Fatalf("round %d hyst %v: diagonal (%d,%d) not -1", round, hyst, src, dst)
						}
						continue
					}
					wantLoss := ref.BestLossStable(src, dst).Via
					wantLat := ref.BestLatStable(src, dst).Via
					if got := tables.LossVia(src, dst); got != wantLoss {
						t.Fatalf("round %d hyst %v: LossVia(%d,%d) = %d, BestLossStable = %d",
							round, hyst, src, dst, got, wantLoss)
					}
					if got := tables.LatVia(src, dst); got != wantLat {
						t.Fatalf("round %d hyst %v: LatVia(%d,%d) = %d, BestLatStable = %d",
							round, hyst, src, dst, got, wantLat)
					}
				}
			}
		}
	}
}

// Selector scripts: FuzzSnapshotMatchesStableSelections decodes its
// input as a header of two bytes — n = 3 + b0 mod 10, then b1: bit 0 a
// landmark plan, bits 1–2 the hysteresis margin (fuzzMargins), bit 3 a
// loss window of 8 instead of the default — and then one step per byte:
// scriptReset resets both twins, a byte whose low four bits are all set
// refreshes and checks, and any other byte records the probe the next
// byte names.
const scriptReset = 0xff

var fuzzMargins = [...]float64{0, 0.25, 0.3, 0.5}

// scriptRecord encodes a record step: the pair byte idx = src*n + dst;
// outcome lost, repeated 1–4 times (a run of four losses kills the
// link); latency 5 + 7k ms for k < 32 when delivered.
func scriptRecord(n, src, dst int, lost bool, repeat, k int) []byte {
	op := byte(repeat-1) << 1
	if lost {
		op |= 1
	} else {
		op |= byte(k) << 3
	}
	return []byte{op, byte(src*n + dst)}
}

// selectorScript turns one of the equivalence tests' randomized drives
// into a script: rounds of probe batches, each round ending in a
// refresh, every resetEvery-th round (if > 0) followed by a reset, and
// every fifth refresh without new probes. As in
// TestSnapshotMatchesStableSelections, each round drives one pair
// toward dead.
func selectorScript(n int, cfg byte, seed int64, rounds, probes, resetEvery int) []byte {
	rng := rand.New(rand.NewSource(seed))
	script := []byte{byte(n - 3), cfg}
	for round := 1; round <= rounds; round++ {
		if round%5 != 0 {
			for k := 0; k < probes; k++ {
				s, d := rng.Intn(n), rng.Intn(n)
				if s == d {
					continue
				}
				lost, repeat := rng.Float64() < 0.25, 1+rng.Intn(2)
				if s == round%n && d == (round+1)%n {
					lost, repeat = true, 4
				}
				script = append(script, scriptRecord(n, s, d, lost, repeat, rng.Intn(22))...)
			}
		}
		script = append(script, 0x0f)
		if resetEvery > 0 && round%resetEvery == 0 {
			script = append(script, scriptReset)
		}
	}
	return script
}

// FuzzSnapshotMatchesStableSelections runs an arbitrary script of
// Record, Refresh and Reset steps on a selector and on a twin fed the
// same probes, and after every refresh demands the three properties
// the campaign's tables rest on: SnapshotInto's tables equal the
// twin's BestLossStable/BestLatStable queried in destination-major
// order; Refresh's count equals the Diff of consecutive copies; and a
// second Refresh moves nothing. Under a plan only the links it probes
// are recorded, as campaigns do. The drives of
// TestSnapshotMatchesStableSelections and TestRefreshCountMatchesDiff
// seed the corpus, shrunk to the fuzzer's mesh sizes.
func FuzzSnapshotMatchesStableSelections(f *testing.F) {
	for _, cfg := range []byte{0, 2 << 1} { // hysteresis 0 and 0.3
		f.Add(selectorScript(9, cfg, 99, 12, 60, 0))
	}
	for _, plan := range []byte{0, 1} {
		for _, cfg := range []byte{plan, plan | 1<<1 | 1<<3} { // hysteresis 0 and 0.25
			f.Add(selectorScript(12, cfg, 23, 15, 80, 5))
		}
	}
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		n, cfg := 3+int(script[0])%10, script[1]
		var plan *LandmarkPlan
		if cfg&1 != 0 && ValidateMeshSize(n) == nil {
			plan = NewLandmarkPlan(n)
		}
		window := 0
		if cfg&(1<<3) != 0 {
			window = 8
		}
		fast, ref := NewSelectorWindow(n, window), NewSelectorWindow(n, window)
		var prev, cur Tables
		start := func() {
			allDirect(&prev, n)
			for _, sel := range []*Selector{fast, ref} {
				sel.SetPlan(plan)
				sel.SetHysteresis(fuzzMargins[cfg>>1&3])
			}
		}
		start()
		check := func(step int) {
			got := fast.Refresh()
			if again := fast.Refresh(); again != 0 {
				t.Fatalf("step %d: a second Refresh with no new probes moved %d entries", step, again)
			}
			fast.SnapshotInto(&cur)
			if want := prev.Diff(&cur); got != want {
				t.Fatalf("step %d: Refresh counted %d moved entries, Diff of the copies %d", step, got, want)
			}
			for dst := 0; dst < n; dst++ {
				for src := 0; src < n; src++ {
					if src == dst {
						if cur.LossVia(src, dst) != -1 || cur.LatVia(src, dst) != -1 {
							t.Fatalf("step %d: diagonal (%d,%d) not -1", step, src, dst)
						}
						continue
					}
					if got, want := cur.LossVia(src, dst), ref.BestLossStable(src, dst).Via; got != want {
						t.Fatalf("step %d: LossVia(%d,%d) = %d, BestLossStable = %d", step, src, dst, got, want)
					}
					if got, want := cur.LatVia(src, dst), ref.BestLatStable(src, dst).Via; got != want {
						t.Fatalf("step %d: LatVia(%d,%d) = %d, BestLatStable = %d", step, src, dst, got, want)
					}
				}
			}
			prev, cur = cur, prev
		}
		for i := 2; i < len(script); i++ {
			switch op := script[i]; {
			case op == scriptReset:
				fast.Reset(window)
				ref.Reset(window)
				start()
			case op&15 == 15:
				check(i)
			case i+1 < len(script):
				i++
				src, dst := int(script[i])%(n*n)/n, int(script[i])%n
				if src == dst || plan != nil && !plan.Probes(src, dst) {
					continue
				}
				lost := op&1 != 0
				lat := time.Duration(5+7*int(op>>3)) * time.Millisecond
				if lost {
					lat = 0
				}
				for range 1 + int(op>>1&3) {
					fast.Record(src, dst, lost, lat)
					ref.Record(src, dst, lost, lat)
				}
			}
		}
		check(len(script))
	})
}
