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
// (key 0 lets the network draw the packet key; fused sends a direct
// route through the lazy network's SendDirect) or a fault injection on
// the backbone of (r.Src, r.Dst).
type twinOp struct {
	t     Time
	r     Route
	key   uint64
	fused bool
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
		switch {
		case op.key != 0:
			got, want = lazy.SendKeyed(op.t, op.r, op.key), eager.SendKeyed(op.t, op.r, op.key)
		case op.fused:
			got, want = lazy.SendDirect(op.t, op.r.Src, op.r.Dst), eager.Send(op.t, op.r)
		default:
			got, want = lazy.Send(op.t, op.r), eager.Send(op.t, op.r)
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

// twinWeather is a global-weather profile the twins run under.
type twinWeather struct {
	name string
	prof *Profile
	// storm0 demands a weather episode in force at time 0.
	storm0 bool
}

func twinWeathers() []twinWeather {
	withGlobal := func(g GlobalParams) *Profile {
		p := DefaultProfile()
		p.Global = g
		return p
	}
	return []twinWeather{
		{"default", nil, false},
		{"storm-at-0", withGlobal(GlobalParams{
			EpisodeEvery: 1, EpisodeMean: 2 * Minute, BoostMin: 8, BoostMax: 25}), true},
		{"storm-soon", withGlobal(GlobalParams{
			EpisodeEvery: 2 * Second, EpisodeMean: Minute, BoostMin: 8, BoostMax: 25}), false},
		{"no-weather", withGlobal(GlobalParams{}), false},
	}
}

// TestLazyBackboneMatchesEager holds a network that builds backbone
// components at first transit to one that has them all from Reset:
// identical outcome streams and component state, whatever the global
// weather is doing at time 0 (the one input of construction that
// depends on when it runs), with faults injected on never-touched
// pairs, and across Resets that change the mesh size on one Network.
func TestLazyBackboneMatchesEager(t *testing.T) {
	profiles := twinWeathers()
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

// twinRun is one Network's life between Resets: its mesh size, seed,
// and schedule.
type twinRun struct {
	n    int
	seed uint64
	ops  []twinOp
}

// decodeTwinRuns reads fuzzer bytes as a header (mesh size 3–24,
// weather, seed) and then 6-byte steps (code, a, b, c, dt, skew). A
// step advances the clock by dt·4 ms; a and b pick the pair, and code%8
// the step: a direct send (0–2; through SendDirect on the lazy side when
// code&8), an indirect send via host c (3–4), a keyed send (5; via c
// when c is odd), a fault on the pair's backbone (6; ForceDown when
// code&8, else ForceCongestion), or a Reset to mesh size 3+a%22 with
// seed b (7). code&16 sends 10–20 ms behind the clock. A fault on a
// pair a send or an earlier fault may have built is skipped: it is not
// a lazy-network question.
func decodeTwinRuns(data []byte) (weather int, runs []twinRun) {
	if len(data) < 3 {
		return 0, nil
	}
	weather = int(data[1]) % len(twinWeathers())
	run := twinRun{n: 3 + int(data[0])%22, seed: uint64(data[2])}
	touched := map[[2]int]bool{}
	touch := func(i, j int) { touched[[2]int{min(i, j), max(i, j)}] = true }
	var clock Time
	for data = data[3:]; len(data) >= 6; data = data[6:] {
		code, a, b, c := data[0], int(data[1]), int(data[2]), int(data[3])
		clock += Time(data[4]) * 4 * Millisecond
		if code%8 == 7 {
			runs = append(runs, run)
			run = twinRun{n: 3 + a%22, seed: uint64(b)}
			clear(touched)
			continue
		}
		n := run.n
		src := a % n
		dst := (src + 1 + b%(n-1)) % n
		op := twinOp{t: clock, r: Direct(src, dst)}
		if code%8 == 6 {
			if touched[[2]int{min(src, dst), max(src, dst)}] {
				continue
			}
			op.fault = forceCongestion
			if code&8 != 0 {
				op.fault = forceDown
			}
			touch(src, dst) // injecting builds the component
			run.ops = append(run.ops, op)
			continue
		}
		if code%8 == 5 {
			op.key = 1 + uint64(a)<<40 ^ uint64(b)<<20 ^ uint64(c)<<8 ^ uint64(data[5])
		}
		if code%8 == 3 || code%8 == 4 || (code%8 == 5 && c%2 == 1) {
			// The c%(n-2)-th host that is neither endpoint.
			via := c % (n - 2)
			for _, h := range []int{min(src, dst), max(src, dst)} {
				if via >= h {
					via++
				}
			}
			op.r = Indirect(src, dst, via)
			touch(src, via)
			touch(via, dst)
		} else {
			op.fused = code%8 < 3 && code&8 != 0
			touch(src, dst)
		}
		if code&16 != 0 {
			op.t = max(0, op.t-10*Millisecond-Time(data[5]%11)*Millisecond)
		}
		run.ops = append(run.ops, op)
	}
	return weather, append(runs, run)
}

// FuzzLazyNetworkMatchesEager drives fuzzer-written schedules through
// runTwins: one Network building backbone components at first transit,
// Reset between runs to other mesh sizes, against a fully built network
// per run. Seeds are TestLazyBackboneMatchesEager's schedule shape,
// shrunk: sends off the last two hosts, a fault on each of two of their
// untouched pairs, sends everywhere, then a Reset to another size.
func FuzzLazyNetworkMatchesEager(f *testing.F) {
	for w := range twinWeathers() {
		for _, sizes := range [][2]int{{24, 5}, {5, 24}} {
			n, next := sizes[0], sizes[1]
			rng := NewSource(uint64(n*4 + w))
			data := []byte{byte(n - 3), byte(w), byte(rng.Intn(256))}
			step := func(code byte, a, b int) {
				data = append(data, code, byte(a), byte(b), byte(rng.Intn(256)), byte(rng.Intn(200)), byte(rng.Intn(256)))
			}
			// sends appends k sends of the first kinds step codes
			// between the first hosts hosts of an n-host mesh.
			sends := func(n, hosts, kinds, k int) {
				for i := 0; i < k; i++ {
					src, dst := rng.Intn(hosts), rng.Intn(hosts-1)
					if dst >= src {
						dst++
					}
					step(byte(rng.Intn(kinds)|rng.Intn(4)<<3), src, (dst-src-1+n)%n)
				}
			}
			sends(n, n-2, 3, 20)
			step(6|8, n-2, 0) // ForceDown on (n-2, n-1)
			step(6, n-1, 0)   // ForceCongestion on (n-1, 0)
			sends(n, n, 6, 20)
			step(7, next-3, rng.Intn(256))
			sends(next, next, 6, 20)
			f.Add(data)
		}
	}
	weathers := twinWeathers()
	f.Fuzz(func(t *testing.T, data []byte) {
		weather, runs := decodeTwinRuns(data)
		prof := weathers[weather].prof
		lazy := &Network{}
		for i, run := range runs {
			tb := topo.Synthetic(run.n)
			lazy.Reset(tb, prof, run.seed)
			eager := New(tb, prof, run.seed)
			eager.materialiseAll()
			runTwins(t, fmt.Sprintf("run %d (n=%d, %s)", i, run.n, weathers[weather].name), lazy, eager, run.ops)
		}
	})
}
