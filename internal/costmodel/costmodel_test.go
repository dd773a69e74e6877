package costmodel

import (
	"math"
	"testing"
	"time"
)

func TestDefaultsValid(t *testing.T) {
	if err := Defaults().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

func TestValidateRejectsNonsense(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.N = 1 },
		func(p *Params) { p.ProbeInterval = 0 },
		func(p *Params) { p.GossipInterval = -time.Second },
		func(p *Params) { p.ProbeSize = 0 },
		func(p *Params) { p.GossipEntrySize = 0 },
		func(p *Params) { p.LinkCapacity = 0 },
		func(p *Params) { p.FlowRate = 0 },
		func(p *Params) { p.FlowRate = p.LinkCapacity * 2 },
		func(p *Params) { p.CLP = 1 },
		func(p *Params) { p.CLP = -0.1 },
		func(p *Params) { p.SharedFraction = 1 },
		func(p *Params) { p.BestPathImprovement = 0 },
		func(p *Params) { p.BestPathImprovement = 1 },
	}
	for i, mut := range mutations {
		p := Defaults()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestReactiveOverheadScalesQuadratically(t *testing.T) {
	small := Defaults()
	small.N = 10
	big := Defaults()
	big.N = 100
	ratio := big.ReactiveOverhead() / small.ReactiveOverhead()
	// Gossip dominates at scale; expect roughly (99/9)² ≈ 121.
	if ratio < 50 || ratio > 200 {
		t.Errorf("overhead ratio = %.1f, want ≈(N/N')² (O(N²) growth)", ratio)
	}
}

func TestReactiveOverheadIndependentOfFlow(t *testing.T) {
	a := Defaults()
	b := Defaults()
	b.FlowRate = a.FlowRate * 50
	if a.ReactiveOverhead() != b.ReactiveOverhead() {
		t.Error("reactive overhead must not depend on flow size (§5.3)")
	}
}

func TestRedundantOverheadLinearInFlow(t *testing.T) {
	p := Defaults()
	if got := p.RedundantOverhead(2); got != p.FlowRate {
		t.Errorf("2-redundant overhead = %v, want flow rate %v (2x total)", got, p.FlowRate)
	}
	if got := p.RedundantOverhead(3); got != 2*p.FlowRate {
		t.Errorf("3-redundant overhead = %v, want 2x flow", got)
	}
	if p.RedundantOverhead(1) != 0 || p.RedundantOverhead(0) != 0 {
		t.Error("single-copy overhead must be zero")
	}
}

func TestCopiesForImprovement(t *testing.T) {
	p := Defaults() // the published CLP and independence limit
	if got := p.CopiesForImprovement(0); got != 1 {
		t.Errorf("no improvement needs %d copies, want 1", got)
	}
	// One extra copy yields (1-s)(1-CLP) = 0.5*0.38 = 0.19 improvement.
	if got := p.CopiesForImprovement(0.19); got != 2 {
		t.Errorf("19%% improvement needs %d copies, want 2", got)
	}
	// Just beyond two copies' reach.
	if got := p.CopiesForImprovement(0.20); got != 3 {
		t.Errorf("20%% improvement needs %d copies, want 3", got)
	}
	// Beyond the independence limit: impossible.
	if got := p.CopiesForImprovement(0.55); got != 0 {
		t.Errorf("beyond independence limit returned %d copies, want 0", got)
	}
	if p.RedundantLimit() != 0.5 {
		t.Errorf("independence limit = %v, want 0.5", p.RedundantLimit())
	}
}

func TestReactiveRateScale(t *testing.T) {
	p := Defaults()
	if s := p.ReactiveRateScale(0); s >= 1 {
		t.Errorf("relaxed demands should reduce probing, scale = %v", s)
	}
	mid := p.ReactiveRateScale(0.2)
	high := p.ReactiveRateScale(0.35)
	if !(mid > p.ReactiveRateScale(0.1) && high > mid) {
		t.Error("probing scale must grow with the improvement target")
	}
	if !math.IsInf(p.ReactiveRateScale(0.4), 1) {
		t.Error("the best-expected-path limit must be an asymptote")
	}
}

func TestSpaceShape(t *testing.T) {
	p := Defaults()
	ds, err := p.Space(101)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Reactive) != 101 || len(ds.Redundant) != 101 {
		t.Fatalf("series sizes %d/%d", len(ds.Reactive), len(ds.Redundant))
	}
	if ds.ReactiveLimit != 0.40 || ds.RedundantLimit != 0.5 {
		t.Errorf("limits = %v/%v", ds.ReactiveLimit, ds.RedundantLimit)
	}
	// Data fraction must be non-increasing in the target for both
	// schemes (the negative-slope capacity limit of Figure 6), over the
	// feasible region.
	checkMonotone := func(name string, pts []Point) {
		prev := math.Inf(1)
		for _, pt := range pts {
			if pt.DataFraction < 0 {
				continue
			}
			if pt.DataFraction > prev+1e-9 {
				t.Fatalf("%s frontier rises at %v", name, pt.Improvement)
			}
			prev = pt.DataFraction
		}
	}
	checkMonotone("reactive", ds.Reactive)
	checkMonotone("redundant", ds.Redundant)
	// Beyond each limit, the scheme is infeasible.
	last := ds.Reactive[len(ds.Reactive)-1]
	if last.DataFraction >= 0 {
		t.Error("reactive feasible at 100% improvement")
	}
	lastR := ds.Redundant[len(ds.Redundant)-1]
	if lastR.DataFraction >= 0 {
		t.Error("redundant feasible at 100% improvement")
	}
}

func TestSpaceRejectsBadParams(t *testing.T) {
	p := Defaults()
	p.N = 0
	if _, err := p.Space(10); err == nil {
		t.Error("bad params accepted")
	}
}

func TestRecommendThinVsThickFlows(t *testing.T) {
	// Thin flow: duplicating it is cheap; probing the whole mesh is
	// not. The paper: "For low-bandwidth flows, redundant approaches
	// can offer similar benefits with lower overhead."
	thin := Defaults()
	thin.FlowRate = 1e3 // 1 kB/s
	s, err := thin.Recommend(0.15)
	if err != nil {
		t.Fatal(err)
	}
	if s != StrategyRedundant {
		t.Errorf("thin flow recommendation = %v, want redundant", s)
	}
	// Thick flow: duplication doubles a large rate; probing is fixed.
	thick := Defaults()
	thick.LinkCapacity = 100e6 / 8
	thick.FlowRate = 40e6 / 8
	s, err = thick.Recommend(0.15)
	if err != nil {
		t.Fatal(err)
	}
	if s != StrategyReactive {
		t.Errorf("thick flow recommendation = %v, want reactive", s)
	}
}

func TestRecommendInfeasible(t *testing.T) {
	p := Defaults()
	// A flow already filling the link leaves no budget: "If the
	// original data stream is using 100% of the available capacity,
	// neither scheme can make an improvement."
	p.FlowRate = p.LinkCapacity * 0.999999
	s, err := p.Recommend(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if s != StrategyNone {
		t.Errorf("saturated link recommendation = %v, want none", s)
	}
	if _, err := p.Recommend(1.5); err == nil {
		t.Error("out-of-range target accepted")
	}
}

func TestRecommendBeyondReactiveLimitFallsToRedundant(t *testing.T) {
	p := Defaults()
	p.SharedFraction = 0.3 // redundant can reach 0.7
	// Target beyond the reactive limit (0.4) but within redundant's.
	s, err := p.Recommend(0.45)
	if err != nil {
		t.Fatal(err)
	}
	if s != StrategyRedundant {
		t.Errorf("recommendation = %v, want redundant (only feasible)", s)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyNone.String() != "none" || StrategyReactive.String() != "reactive" ||
		StrategyRedundant.String() != "redundant" {
		t.Error("strategy names changed")
	}
}
