package route

import (
	"testing"
	"time"
)

// hystSelector builds a 3-node selector where direct 0→1 and the path via
// node 2 have controllable loss rates.
func hystSelector(directLoss, viaLoss float64) *Selector {
	s := NewSelectorWindow(3, 0)
	s.SetHysteresis(0.5)
	for i := 0; i < 100; i++ {
		s.Record(0, 1, float64(i%100) < directLoss*100, 50*time.Millisecond)
		s.Record(0, 2, float64(i%100) < viaLoss*100, 20*time.Millisecond)
		s.Record(2, 1, false, 20*time.Millisecond)
	}
	return s
}

func TestHysteresisHoldsIncumbent(t *testing.T) {
	// Direct at 10% loss; via at ~6% composed loss: better, but not by
	// the 50% margin — the incumbent (direct, selected first) holds.
	s := hystSelector(0.10, 0.06)
	first := s.BestLossStable(0, 1)
	if !first.IsDirect() {
		// The very first selection has incumbent "direct" by default;
		// via is only ~40% better, under the margin.
		t.Fatalf("first stable selection = %v, want direct held", first)
	}
	// Plain BestLoss, by contrast, switches immediately.
	if c := s.BestLoss(0, 1); c.IsDirect() {
		t.Fatal("undamped BestLoss should prefer the via path")
	}
}

func TestHysteresisSwitchesOnBigWin(t *testing.T) {
	// Via path with ~1% composed loss vs 10% direct: far past the
	// margin; the stable selection must move and then stick.
	s := hystSelector(0.10, 0.01)
	c := s.BestLossStable(0, 1)
	if c.Via != 2 {
		t.Fatalf("stable selection = %v, want via 2", c)
	}
	// Now direct recovers to 8%: via (1%) is the incumbent and still
	// better, so it must hold.
	for i := 0; i < 100; i++ {
		s.Record(0, 1, i%100 < 8, 50*time.Millisecond)
	}
	if c := s.BestLossStable(0, 1); c.Via != 2 {
		t.Errorf("incumbent via 2 lost to a worse direct: %v", c)
	}
}

func TestHysteresisAbandonsDeadIncumbent(t *testing.T) {
	s := hystSelector(0.10, 0.01)
	if c := s.BestLossStable(0, 1); c.Via != 2 {
		t.Fatalf("setup: want via 2, got %v", c)
	}
	// Kill the incumbent's first hop outright. The dead flag overrides
	// the hold immediately; a handful of window samples is enough for
	// plain BestLoss to prefer another path, and the hysteresis must
	// not keep the selection pinned to the dead incumbent.
	for i := 0; i < 40; i++ {
		s.Record(0, 2, true, 0)
	}
	c := s.BestLossStable(0, 1)
	if c.Via == 2 {
		t.Errorf("stable selection stuck on a dead path: %v", c)
	}
}

func TestHysteresisLatencyMetric(t *testing.T) {
	s := NewSelectorWindow(3, 0)
	s.SetHysteresis(0.3)
	for i := 0; i < 50; i++ {
		s.Record(0, 1, false, 50*time.Millisecond)
		s.Record(0, 2, false, 20*time.Millisecond)
		s.Record(2, 1, false, 22*time.Millisecond)
	}
	// Via = 42ms vs direct 50ms: 16% better, below the 30% margin.
	if c := s.BestLatStable(0, 1); !c.IsDirect() {
		t.Fatalf("lat stable = %v, want direct held", c)
	}
	// Speed the via path up to 10ms+10ms = 20ms: 60% better; switch.
	for i := 0; i < 200; i++ {
		s.Record(0, 2, false, 10*time.Millisecond)
		s.Record(2, 1, false, 10*time.Millisecond)
	}
	if c := s.BestLatStable(0, 1); c.Via != 2 {
		t.Errorf("lat stable = %v, want via 2 after big win", c)
	}
}

func TestHysteresisDisabledEqualsPlain(t *testing.T) {
	s := hystSelector(0.10, 0.06)
	s.SetHysteresis(0)
	if got, want := s.BestLossStable(0, 1), s.BestLoss(0, 1); got != want {
		t.Errorf("disabled hysteresis: %v != %v", got, want)
	}
	if got, want := s.BestLatStable(0, 1), s.BestLat(0, 1); got != want {
		t.Errorf("disabled hysteresis (lat): %v != %v", got, want)
	}
	// Negative margins are clamped.
	s.SetHysteresis(-1)
	if s.hysteresis != 0 {
		t.Error("negative margin not clamped")
	}
}

func TestHysteresisReducesFlapping(t *testing.T) {
	// Two near-equal alternatives with noisy measurements: the damped
	// selector must change routes far less often than the plain one. A
	// 30-probe window holds three 10-probe rounds, so the estimates
	// follow the alternation (the default window holds a whole number
	// of round pairs and averages it away): after a round where the
	// direct path looks lossy it reads 4/30 against the via path's
	// 1−(29/30)², after the next 2/30 against 1−(28/30)². The plain
	// pick changes every round; once on the via path, the damped one
	// never sees the direct path lead it by the 0.5 margin.
	plain := NewSelectorWindow(3, 30)
	damped := NewSelectorWindow(3, 30)
	damped.SetHysteresis(0.5)

	var plainChanges, dampedChanges int
	lastPlain, lastDamped := -2, -2
	// Deterministic "noise": alternate which path looks slightly lossier.
	for round := 0; round < 200; round++ {
		directBad := round%2 == 0
		for i := 0; i < 10; i++ {
			for _, s := range []*Selector{plain, damped} {
				s.Record(0, 1, directBad && i < 2, 50*time.Millisecond)
				s.Record(0, 2, !directBad && i < 1, 20*time.Millisecond)
				s.Record(2, 1, !directBad && i < 1, 20*time.Millisecond)
			}
		}
		if v := plain.BestLoss(0, 1).Via; v != lastPlain {
			plainChanges++
			lastPlain = v
		}
		if v := damped.BestLossStable(0, 1).Via; v != lastDamped {
			dampedChanges++
			lastDamped = v
		}
	}
	t.Logf("route changes over 200 rounds: plain %d, damped %d", plainChanges, dampedChanges)
	if plainChanges < 3 {
		t.Fatalf("noise pattern did not induce flapping (%d changes)", plainChanges)
	}
	if dampedChanges*2 >= plainChanges {
		t.Errorf("hysteresis did not damp flapping: %d vs %d changes",
			dampedChanges, plainChanges)
	}
}
