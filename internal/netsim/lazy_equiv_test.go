package netsim

import (
	"fmt"
	"testing"

	"repro/internal/topo"
)

// materialiseAll builds every backbone component right after a Reset, in
// pair order — the layout every Network had before components were built
// at their first transit, and the reference the lazy network is held to.
func (nw *Network) materialiseAll() {
	n := nw.tb.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			nw.BackboneComponent(i, j)
		}
	}
	if nw.Materialised() != n*(n-1)/2 {
		panic("reference network is not fully built")
	}
}

// twinOp is one step of a schedule driven through both networks: a send
// (key 0 lets the network draw the packet key) or a fault injection on
// the backbone of (r.Src, r.Dst).
type twinOp struct {
	t     Time
	r     Route
	key   uint64
	fault twinFault
}

type twinFault uint8

const (
	noFault twinFault = iota // a send
	forceDown
	forceCongestion
)

// twinSchedule draws direct and indirect sends in roughly increasing
// time, with the backward skews SendKeyed documents (a second copy sent
// 10–20 ms "earlier" than the clock). The first half keeps off the last
// two hosts, so the pairs faulted at the midpoint have never carried a
// packet; the second half sends everywhere, through the faults.
func twinSchedule(seed uint64, n, sends int) []twinOp {
	rng := NewSource(seed)
	ops := make([]twinOp, 0, sends+2)
	var clock Time
	route := func(hosts int) Route {
		src := rng.Intn(hosts)
		dst := (src + 1 + rng.Intn(hosts-1)) % hosts
		if rng.Intn(5) < 3 {
			return Direct(src, dst)
		}
		via := rng.Intn(hosts)
		for via == src || via == dst {
			via = rng.Intn(hosts)
		}
		return Indirect(src, dst, via)
	}
	for i := 0; i < sends; i++ {
		hosts := n
		if i < sends/2 {
			hosts = n - 2
		}
		if i == sends/2 {
			ops = append(ops,
				twinOp{t: clock, r: Direct(n-2, n-1), fault: forceDown},
				twinOp{t: clock, r: Direct(n-1, 0), fault: forceCongestion})
		}
		clock += Time(rng.Exp(float64(400 * Millisecond)))
		op := twinOp{t: clock, r: route(hosts)}
		switch rng.Intn(4) {
		case 0:
			op.t -= 10*Millisecond + Time(rng.Intn(int(10*Millisecond)))
			if op.t < 0 {
				op.t = 0
			}
		case 1:
			op.key = 1 + rng.Uint64()>>1
		}
		ops = append(ops, op)
	}
	return ops
}

// runTwins drives ops through both networks in lockstep and demands
// identical outcomes, then identical state on every component — which
// builds the lazy network's untouched pairs at the end of the run, the
// latest a component can be built.
func runTwins(t *testing.T, label string, lazy, eager *Network, ops []twinOp) {
	t.Helper()
	n := lazy.tb.N()
	var end Time
	for i, op := range ops {
		if op.t > end {
			end = op.t
		}
		if op.fault != noFault {
			if lazy.backbone(op.r.Src*n+op.r.Dst) != nil {
				t.Fatalf("%s: pair %v was touched before its fault", label, op.r)
			}
			for _, nw := range []*Network{lazy, eager} {
				c := nw.BackboneComponent(op.r.Src, op.r.Dst)
				if op.fault == forceDown {
					c.ForceDown(op.t, 90*Second)
				} else {
					c.ForceCongestion(op.t, 5*Minute, 0.6)
				}
			}
			continue
		}
		var got, want Outcome
		if op.key == 0 {
			got, want = lazy.Send(op.t, op.r), eager.Send(op.t, op.r)
		} else {
			got, want = lazy.SendKeyed(op.t, op.r, op.key), eager.SendKeyed(op.t, op.r, op.key)
		}
		if got != want {
			t.Fatalf("%s: op %d (%v at %v): lazy %+v, pre-built %+v", label, i, op.r, op.t, got, want)
		}
	}
	same := func(what string, a, b *Component) {
		t.Helper()
		ad, ac, as := a.Probe(end)
		bd, bc, bs := b.Probe(end)
		if a.id != b.id || a.class != b.class || a.rng != b.rng || ad != bd || ac != bc || as != bs {
			t.Fatalf("%s: %s differs: lazy id %d rng %v probe (%v,%v,%v); pre-built id %d rng %v probe (%v,%v,%v)",
				label, what, a.id, a.rng, ad, ac, as, b.id, b.rng, bd, bc, bs)
		}
	}
	for i := 0; i < n; i++ {
		same(fmt.Sprintf("access %d", i), lazy.AccessComponent(i), eager.AccessComponent(i))
		for j := i + 1; j < n; j++ {
			same(fmt.Sprintf("backbone %d-%d", i, j), lazy.BackboneComponent(i, j), eager.BackboneComponent(j, i))
		}
	}
	if lazy.BackboneComponent(3, 3) != nil {
		t.Fatalf("%s: BackboneComponent(i, i) is not nil", label)
	}
}

// TestLazyBackboneMatchesEager holds a network that builds backbone
// components at first transit to one that has them all from Reset:
// identical outcome streams and component state, whatever the global
// weather is doing at time 0 (the one input of construction that
// depends on when it runs), with faults injected on never-touched
// pairs, and across Resets that change the mesh size on one Network.
func TestLazyBackboneMatchesEager(t *testing.T) {
	withGlobal := func(g GlobalParams) *Profile {
		p := DefaultProfile()
		p.Global = g
		return p
	}
	profiles := []struct {
		name string
		prof *Profile
		// storm0 demands a weather episode in force at time 0.
		storm0 bool
	}{
		{"default", nil, false},
		{"storm-at-0", withGlobal(GlobalParams{
			EpisodeEvery: 1, EpisodeMean: 2 * Minute, BoostMin: 8, BoostMax: 25}), true},
		{"storm-soon", withGlobal(GlobalParams{
			EpisodeEvery: 2 * Second, EpisodeMean: Minute, BoostMin: 8, BoostMax: 25}), false},
		{"no-weather", withGlobal(GlobalParams{}), false},
	}
	testbeds := []*topo.Testbed{topo.RON2003(), topo.Synthetic(64)}
	for _, tb := range testbeds {
		ops := twinSchedule(uint64(tb.N()), tb.N(), 12000)
		for _, pc := range profiles {
			seed := uint64(1)
			lazy := New(tb, pc.prof, seed)
			for pc.storm0 && lazy.weather0 == 1 {
				seed++
				lazy.Reset(tb, pc.prof, seed)
			}
			if lazy.Materialised() != 0 {
				t.Fatalf("a fresh network holds %d backbone components", lazy.Materialised())
			}
			eager := New(tb, pc.prof, seed)
			eager.materialiseAll()
			runTwins(t, fmt.Sprintf("n=%d %s", tb.N(), pc.name), lazy, eager, ops)
		}
	}

	// One Network across mesh sizes: a warm slab (same size, other
	// seed), dropped for a smaller mesh, regrown for the original.
	lazy := &Network{}
	for i, n := range []int{64, 64, 32, 64} {
		tb := topo.Synthetic(n)
		seed := uint64(20 + i)
		lazy.Reset(tb, nil, seed)
		eager := New(tb, nil, seed)
		eager.materialiseAll()
		runTwins(t, fmt.Sprintf("reset %d to n=%d", i, n), lazy, eager, twinSchedule(seed, n, 6000))
	}
	// lazy is now a fully built 64-node network: resetting it to the same
	// size and building every pair again allocates nothing.
	tb := topo.Synthetic(64)
	if allocs := testing.AllocsPerRun(3, func() {
		lazy.Reset(tb, nil, 9)
		lazy.materialiseAll()
	}); allocs != 0 {
		t.Fatalf("warm same-size Reset and rebuild allocated %.0f times", allocs)
	}
}
