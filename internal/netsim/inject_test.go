package netsim

import (
	"testing"
	"time"

	"repro/internal/topo"
)

func TestForceDownInjectsOutage(t *testing.T) {
	nw := testNetwork(44)
	src, dst := 3, 9
	c := nw.BackboneComponent(src, dst)

	// Healthy before the injection (retry a few times to dodge any
	// natural burst).
	delivered := false
	for i := 0; i < 20 && !delivered; i++ {
		if o := nw.Send(Time(i)*10*Millisecond, Direct(src, dst)); o.Delivered {
			delivered = true
		}
	}
	if !delivered {
		t.Fatal("path never delivered before injection")
	}

	start := Time(10 * Second)
	c.ForceDown(start, 5*Second)
	// During the forced outage every direct packet dies at that
	// component...
	for i := 0; i < 20; i++ {
		at := start + Time(i)*100*Millisecond
		o := nw.Send(at, Direct(src, dst))
		if o.Delivered {
			t.Fatalf("packet survived a forced outage at %v", at)
		}
		if o.DroppedAt != c.id {
			t.Fatalf("drop attributed to %d, want %d", o.DroppedAt, c.id)
		}
	}
	// ...while indirect routes dodge it.
	ok := 0
	for via := 0; via < nw.tb.N(); via++ {
		if via == src || via == dst {
			continue
		}
		if o := nw.Send(start+Second, Indirect(src, dst, via)); o.Delivered {
			ok++
		}
	}
	if ok == 0 {
		t.Error("no indirect route survived a backbone-only forced outage")
	}
	// Recovery: after the forced window the path heals.
	healed := false
	for i := 0; i < 50 && !healed; i++ {
		at := start + 5*Second + Time(i)*50*Millisecond
		if o := nw.Send(at, Direct(src, dst)); o.Delivered {
			healed = true
		}
	}
	if !healed {
		t.Error("path did not heal after the forced outage ended")
	}
}

// TestForceDownOverlapNaturalOutage pins the interaction between
// injected and stochastic outages: a forced outage overlapping an
// in-progress natural one must neither double-count it nor shorten it,
// a longer forced window extends the downtime, and a forced window
// spanning a time where the natural process would have drawn its own
// outage yields one counted outage, not two. Same-seed twin components
// make the natural timeline observable: scanning one reveals exactly
// when the others go down and recover, because outage evolution is
// time-driven, not query-driven.
func TestForceDownOverlapNaturalOutage(t *testing.T) {
	params := testParams()
	params.MeanUp = 30 * time.Second
	params.MeanDown = 10 * time.Second
	const seed = 21
	step := 100 * Millisecond

	// Scan the reference twin for two natural outage windows, requiring
	// the first to be wide enough to force inside and the gap between
	// them wide enough to force from an up state.
	ref := newTestComponent(seed, params)
	var windows [][2]Time
	var downAt Time
	down := false
	for at := Time(0); at < Time(30*Minute) && len(windows) < 2; at += step {
		d, _, _ := ref.Probe(at)
		if d && !down {
			down, downAt = true, at
		}
		if !d && down {
			down = false
			if at-downAt >= 2*Second && (len(windows) == 0 || downAt-windows[0][1] >= 2*Second) {
				windows = append(windows, [2]Time{downAt, at})
			} else {
				windows = windows[:0] // unusable geometry; keep scanning
			}
		}
	}
	if len(windows) < 2 {
		t.Fatal("no usable natural outage windows in 30 virtual minutes")
	}
	tDown, tUp := windows[0][0], windows[0][1]
	tDown2, tUp2 := windows[1][0], windows[1][1]

	// A short forced outage inside a natural one does not shorten the
	// downtime: the component recovers exactly when its unperturbed
	// twin does.
	b := newTestComponent(seed, params)
	mid := tDown + (tUp-tDown)/2
	if d, _, _ := b.Probe(mid); !d {
		t.Fatal("same-seed twin not down mid-outage")
	}
	b.ForceDown(mid, step)
	if d, _, _ := b.Probe(tUp - step); !d {
		t.Error("short forced overlap cut the natural outage short")
	}
	if d, _, _ := b.Probe(tUp + step); d {
		t.Error("twin still down after the natural recovery time")
	}

	// A forced outage outlasting the natural one extends the downtime to
	// the forced end.
	c := newTestComponent(seed, params)
	c.Probe(mid)
	ext := (tUp - mid) + 5*Second
	c.ForceDown(mid, ext)
	if d, _, _ := c.Probe(tUp + step); !d {
		t.Error("forced extension ignored: up at the natural recovery time")
	}
	if d, _, _ := c.Probe(mid + ext + step); d {
		t.Error("still down after the extended forced window")
	}

	// A forced window that spans the next natural outage draw absorbs
	// it: the component is up again as the window ends.
	d := newTestComponent(seed, params)
	tF := tUp + (tDown2-tUp)/2
	if dn, _, _ := d.Probe(tF); dn {
		t.Fatal("twin unexpectedly down between natural outages")
	}
	until := tUp2 + 2*Second
	d.ForceDown(tF, until-tF)
	if dn, _, _ := d.Probe(until - step); !dn {
		t.Error("forced window not in effect through the spanned natural outage")
	}
	if dn, _, _ := d.Probe(until + step); dn {
		t.Error("still down after a forced window that absorbed a natural outage")
	}
}

func TestForceCongestionRaisesLoss(t *testing.T) {
	nw := testNetwork(45)
	src, dst := 1, 5
	c := nw.AccessComponent(dst)
	start := Time(Minute)
	c.ForceCongestion(start, 10*Second, 0.9)

	var lost, sent int
	for i := 0; i < 400; i++ {
		at := start + Time(i)*20*Millisecond
		sent++
		if o := nw.Send(at, Direct(src, dst)); !o.Delivered {
			lost++
		}
	}
	rate := float64(lost) / float64(sent)
	if rate < 0.7 {
		t.Errorf("forced 90%% burst produced %.2f loss", rate)
	}
	// The burst is on the destination's access: an indirect route is
	// equally doomed (shared fate, §2.4).
	if o := nw.Send(start+Second, Indirect(src, dst, 7)); o.Delivered {
		// One packet may survive the 0.9 severity; try several.
		survived := 1
		for i := 2; i <= 30; i++ {
			if o := nw.Send(start+Time(i)*100*Millisecond, Indirect(src, dst, 7)); o.Delivered {
				survived++
			}
		}
		if survived > 15 {
			t.Errorf("indirect route dodged a dst-access burst: %d/30 survived", survived)
		}
	}
}

func TestGlobalModulatorCorrelatesComponents(t *testing.T) {
	// With violent global weather, distinct paths' loss rates must rise
	// and fall together; with the modulator disabled they must not.
	tb := topo.RON2002()
	mk := func(global GlobalParams) (a, b []float64) {
		prof := DefaultProfile()
		prof.Global = global
		nw := New(tb, prof, 321)
		// Two node-disjoint paths.
		pa, pb := Direct(0, 1), Direct(2, 3)
		const buckets = 40
		const perBucket = 4000
		for k := 0; k < buckets; k++ {
			var la, lb int
			for i := 0; i < perBucket; i++ {
				at := Time(k*perBucket+i) * 30 * Millisecond
				if !nw.Send(at, pa).Delivered {
					la++
				}
				if !nw.Send(at, pb).Delivered {
					lb++
				}
			}
			a = append(a, float64(la)/perBucket)
			b = append(b, float64(lb)/perBucket)
		}
		return a, b
	}
	violent := GlobalParams{
		EpisodeEvery: 20 * Minute,
		EpisodeMean:  10 * Minute,
		BoostMin:     150,
		BoostMax:     300,
	}
	a1, b1 := mk(violent)
	corrOn := correlation(a1, b1)
	a0, b0 := mk(GlobalParams{})
	corrOff := correlation(a0, b0)
	if corrOn < corrOff+0.2 {
		t.Errorf("global weather correlation %.3f not above baseline %.3f",
			corrOn, corrOff)
	}
	if corrOn < 0.3 {
		t.Errorf("violent global weather yields correlation %.3f, want > 0.3", corrOn)
	}
}

// correlation computes the Pearson correlation of two equal-length series.
func correlation(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var num, dx, dy float64
	for i := range x {
		a, b := x[i]-mx, y[i]-my
		num += a * b
		dx += a * a
		dy += b * b
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / (sqrt(dx) * sqrt(dy))
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 40; i++ {
		x = (x + v/x) / 2
	}
	return x
}

func TestRouteInflationProperties(t *testing.T) {
	// Inflation factors are per-pair constants ≥ 1, symmetric, and some
	// pairs must be inflated enough that a two-hop overlay path beats
	// the direct path's base latency — the §2.2 suboptimal-routing
	// premise that gives latency-optimized overlay routing room to win.
	nw := testNetwork(99)
	n := nw.tb.N()
	beatable := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d1 := nw.BaseLatency(Direct(i, j))
			d2 := nw.BaseLatency(Direct(j, i))
			if d1 != d2 {
				t.Fatalf("asymmetric base latency %d↔%d", i, j)
			}
			if d1 < Time(nw.tb.BaseOneWay(i, j)) {
				t.Fatalf("deflated pair %d,%d", i, j)
			}
			for v := 0; v < n; v++ {
				if v == i || v == j {
					continue
				}
				if nw.BaseLatency(Indirect(i, j, v)) < d1 {
					beatable++
					break
				}
			}
		}
	}
	frac := float64(beatable) / float64(n*(n-1)/2)
	// RON found ~30-50% of paths improvable; require a healthy fraction.
	if frac < 0.10 || frac > 0.80 {
		t.Errorf("fraction of latency-beatable pairs = %.2f, want within [0.1,0.8]", frac)
	}
}
