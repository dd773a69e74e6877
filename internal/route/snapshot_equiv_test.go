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
