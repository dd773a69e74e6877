package netsim

import (
	"testing"
	"time"

	"repro/internal/topo"
)

func testNetwork(seed uint64) *Network {
	return New(topo.RON2003(), nil, seed)
}

func TestNetworkDeterminism(t *testing.T) {
	a, b := testNetwork(5), testNetwork(5)
	for i := 0; i < 5000; i++ {
		tm := Time(i) * 20 * Millisecond
		r := Direct(i%30, (i+7)%30)
		if r.Src == r.Dst {
			continue
		}
		oa := a.SendKeyed(tm, r, uint64(i))
		ob := b.SendKeyed(tm, r, uint64(i))
		if oa != ob {
			t.Fatalf("same-seed networks diverged at step %d: %+v vs %+v", i, oa, ob)
		}
	}
}

func TestRouteValidity(t *testing.T) {
	cases := []struct {
		r    Route
		want bool
	}{
		{Direct(0, 1), true},
		{Direct(0, 0), false},
		{Direct(-1, 1), false},
		{Direct(0, 30), false},
		{Indirect(0, 1, 2), true},
		{Indirect(0, 1, 0), false},
		{Indirect(0, 1, 1), false},
		{Indirect(0, 1, 30), false},
	}
	for _, c := range cases {
		if got := c.r.Valid(30); got != c.want {
			t.Errorf("%v.Valid(30) = %v, want %v", c.r, got, c.want)
		}
	}
	if Direct(3, 7).String() != "3→7" || Indirect(3, 7, 12).String() != "3→7 via 12" {
		t.Error("Route.String format changed")
	}
}

func TestSendPanicsOnInvalidRoute(t *testing.T) {
	nw := testNetwork(1)
	defer func() {
		if recover() == nil {
			t.Error("Send with invalid route did not panic")
		}
	}()
	nw.Send(0, Direct(2, 2))
}

func TestDeliveredLatencyAtLeastBase(t *testing.T) {
	nw := testNetwork(9)
	for i := 0; i < 20000; i++ {
		tm := Time(i) * 10 * Millisecond
		src, dst, via := i%30, (i+11)%30, (i+17)%30
		if src == dst {
			continue
		}
		o := nw.Send(tm, Direct(src, dst))
		if o.Delivered && o.Latency < nw.BaseLatency(Direct(src, dst)) {
			t.Fatalf("direct latency %v below base %v",
				o.Latency.Duration(), nw.BaseLatency(Direct(src, dst)).Duration())
		}
		if via != src && via != dst {
			r := Indirect(src, dst, via)
			o := nw.Send(tm, r)
			if o.Delivered && o.Latency < nw.BaseLatency(r) {
				t.Fatalf("indirect latency %v below base %v",
					o.Latency.Duration(), nw.BaseLatency(r).Duration())
			}
		}
	}
}

func TestIndirectBaseLatencyTriangle(t *testing.T) {
	nw := testNetwork(2)
	// Base latency of an indirect route includes both legs plus the
	// forwarding delay, so it must be at least each leg's base.
	r := Indirect(0, 5, 12)
	if nw.BaseLatency(r) <= nw.BaseLatency(Direct(0, 12)) ||
		nw.BaseLatency(r) <= nw.BaseLatency(Direct(12, 5)) {
		t.Error("indirect base latency should exceed each leg's base")
	}
	want := nw.BaseLatency(Direct(0, 12)) + nw.BaseLatency(Direct(12, 5)) +
		Time(nw.prof.ForwardingDelay)
	if nw.BaseLatency(r) != want {
		t.Errorf("BaseLatency(%v) = %v, want %v", r, nw.BaseLatency(r), want)
	}
	// Route inflation keeps every direct base at or above the
	// geographic floor.
	if nw.BaseLatency(Direct(0, 12)) < Time(nw.tb.BaseOneWay(0, 12)) {
		t.Error("inflation must not shrink the geographic floor")
	}
}

func TestAccessOutageKillsAllRoutes(t *testing.T) {
	if testing.Short() {
		t.Skip("fast-forwards days of virtual time to find an outage")
	}
	// When a destination's access component is down, both the direct
	// path and every indirect path must fail: this is the shared-fate
	// property (§2.4) that bounds multi-path routing.
	nw := testNetwork(3)
	dst := 4
	c := nw.AccessComponent(dst)
	// Find a time when the access component is down by fast-forwarding.
	var downAt Time = -1
	for i := 0; i < 40_000_000 && downAt < 0; i++ {
		tm := Time(i) * Second
		if down, _, _ := c.Probe(tm); down {
			downAt = tm
		}
	}
	if downAt < 0 {
		t.Skip("no access outage in the probed horizon for this seed")
	}
	for via := 0; via < nw.tb.N(); via++ {
		if via == 0 || via == dst {
			continue
		}
		if o := nw.Send(downAt, Indirect(0, dst, via)); o.Delivered {
			t.Fatalf("packet delivered via %d while dst access down", via)
		}
	}
	if o := nw.Send(downAt, Direct(0, dst)); o.Delivered {
		t.Fatal("packet delivered directly while dst access down")
	}
}

func TestBackboneOutageAvoidableViaIndirect(t *testing.T) {
	// A backbone outage between src and dst must not affect indirect
	// routes (whose backbone segments differ) — this is the path
	// redundancy reactive routing exploits.
	nw := testNetwork(6)
	src, dst := 1, 2
	c := nw.BackboneComponent(src, dst)
	var downAt Time = -1
	for i := 0; i < 40_000_000 && downAt < 0; i++ {
		tm := Time(i) * Second
		if down, _, _ := c.Probe(tm); down {
			downAt = tm
		}
	}
	if downAt < 0 {
		t.Skip("no backbone outage in the probed horizon for this seed")
	}
	if o := nw.Send(downAt, Direct(src, dst)); o.Delivered {
		t.Fatal("packet crossed a down backbone")
	}
	// At least one indirect route should succeed (unless by bad luck
	// every intermediate is simultaneously impaired, which would defeat
	// the test's premise).
	delivered := 0
	for via := 0; via < nw.tb.N(); via++ {
		if via == src || via == dst {
			continue
		}
		if o := nw.Send(downAt, Indirect(src, dst, via)); o.Delivered {
			delivered++
		}
	}
	if delivered == 0 {
		t.Error("no indirect route survived a backbone-only outage")
	}
}

func TestDropAttribution(t *testing.T) {
	nw := testNetwork(8)
	var accessDrops, backboneDrops int
	for i := 0; i < 3_000_000; i++ {
		tm := Time(i) * 40 * Millisecond
		src, dst := i%30, (i+13)%30
		if src == dst {
			continue
		}
		o := nw.Send(tm, Direct(src, dst))
		if o.Delivered {
			if o.DroppedAt != NoComponent {
				t.Fatal("delivered packet has a drop component")
			}
			continue
		}
		switch o.DropClass {
		case ClassAccess:
			accessDrops++
		case ClassBackbone:
			backboneDrops++
		}
		if o.DroppedAt == NoComponent {
			t.Fatal("dropped packet lacks attribution")
		}
	}
	if accessDrops == 0 || backboneDrops == 0 {
		t.Errorf("drop attribution skewed: access=%d backbone=%d",
			accessDrops, backboneDrops)
	}
	if accessDrops <= backboneDrops {
		t.Errorf("edge should dominate drops: access=%d backbone=%d (§2.4)",
			accessDrops, backboneDrops)
	}
}

func TestPacketKeysUnique(t *testing.T) {
	nw := testNetwork(1)
	seen := make(map[uint64]bool)
	for i := 0; i < 100000; i++ {
		k := nw.NextPacketKey()
		if seen[k] {
			t.Fatalf("duplicate packet key after %d allocations", i)
		}
		seen[k] = true
	}
}

func TestBroadbandPathsLossier(t *testing.T) {
	// Paths to broadband hosts must be lossier on average than paths
	// between backbone-grade hosts (Figure 2's spread; the paper's
	// worst path involved a DSL line).
	nw := testNetwork(12)
	tb := nw.tb
	dsl := tb.Index("CA-DSL")
	mit, cmu := tb.Index("MIT"), tb.Index("CMU")
	var dslLost, dslSent, bgLost, bgSent int
	for i := 0; i < 1_500_000; i++ {
		tm := Time(i) * 60 * Millisecond
		if o := nw.Send(tm, Direct(mit, dsl)); true {
			dslSent++
			if !o.Delivered {
				dslLost++
			}
		}
		if o := nw.Send(tm, Direct(mit, cmu)); true {
			bgSent++
			if !o.Delivered {
				bgLost++
			}
		}
	}
	dslRate := float64(dslLost) / float64(dslSent)
	bgRate := float64(bgLost) / float64(bgSent)
	if dslRate <= bgRate {
		t.Errorf("DSL path loss %.4f should exceed Internet2 path loss %.4f",
			dslRate, bgRate)
	}
}

func TestProfileKnobs(t *testing.T) {
	// LossScale must scale loss; EdgeShare must tilt attribution.
	base := DefaultProfile()
	hot := DefaultProfile()
	hot.LossScale = 8
	lossOf := func(p *Profile) float64 {
		nw := New(topo.RON2002(), p, 99)
		var lost, sent int
		for i := 0; i < 400000; i++ {
			tm := Time(i) * 50 * Millisecond
			src, dst := i%17, (i+5)%17
			if src == dst {
				continue
			}
			sent++
			if o := nw.Send(tm, Direct(src, dst)); !o.Delivered {
				lost++
			}
		}
		return float64(lost) / float64(sent)
	}
	lb, lh := lossOf(base), lossOf(hot)
	if lh < 3*lb {
		t.Errorf("LossScale=8 loss %.4f not ≫ baseline %.4f", lh, lb)
	}
}

func TestEffectiveMeanGoodKnobs(t *testing.T) {
	p := DefaultProfile()
	mg := 100 * time.Second
	if got := p.effectiveMeanGood(ClassAccess, mg); got != mg {
		t.Errorf("neutral knobs changed MeanGood: %v", got)
	}
	p.EdgeShare = 2
	if got := p.effectiveMeanGood(ClassAccess, mg); got >= mg {
		t.Error("EdgeShare>1 should shorten access good periods")
	}
	if got := p.effectiveMeanGood(ClassBackbone, mg); got <= mg {
		t.Error("EdgeShare>1 should lengthen backbone good periods")
	}
	p.EdgeShare = 1
	p.LossScale = 4
	if got := p.effectiveMeanGood(ClassBackbone, mg); got != mg/4 {
		t.Errorf("LossScale=4 gave %v, want %v", got, mg/4)
	}
	// Floor at 100 ms guards against runaway LossScale values.
	if got := p.effectiveMeanGood(ClassAccess, time.Millisecond); got < 100*time.Millisecond {
		t.Errorf("MeanGood floor violated: %v", got)
	}
}

// TestSendDirectMatchesSend pins the fused direct path against the
// generic routed send: two same-seed networks driven by the same
// schedule — one through SendDirect, one through Send(Direct) — must
// produce identical outcomes and identical packet-key streams.
func TestSendDirectMatchesSend(t *testing.T) {
	a, b := testNetwork(11), testNetwork(11)
	for i := 0; i < 5000; i++ {
		tm := Time(i) * 20 * Millisecond
		src, dst := i%30, (i+11)%30
		if src == dst {
			continue
		}
		oa := a.SendDirect(tm, src, dst)
		ob := b.Send(tm, Direct(src, dst))
		if oa != ob {
			t.Fatalf("step %d: SendDirect %+v != Send %+v", i, oa, ob)
		}
	}
	if ka, kb := a.NextPacketKey(), b.NextPacketKey(); ka != kb {
		t.Fatalf("packet-key streams diverged: %#x vs %#x", ka, kb)
	}
}

func TestSendDirectPanicsOnBadRoute(t *testing.T) {
	nw := testNetwork(1)
	for _, p := range [][2]int{{2, 2}, {-1, 3}, {0, 30}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SendDirect(%d,%d): no panic", p[0], p[1])
				}
			}()
			nw.SendDirect(0, p[0], p[1])
		}()
	}
}
